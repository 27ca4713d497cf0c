"""Clusters: downward-closed families of finite multisets of m-tuples.

A cluster is presented as a finite union of boxed generators: a
repetition-function box bounding per-tuple multiplicities plus a
cardinality cap.  The presentation is closed under union, quotient,
and breadth restriction with closed-form generator arithmetic, and
explicit antichains (box = the multiset itself) cover everything else,
conjunctive minors included; the intersection of two clusters is the
minor with two identity maps.  Membership equivalence, not generator
identity, is the contract.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import groupby, product, repeat
from operator import add, itemgetter

from .errors import GaloisKitError, Meter, _check_int, _current_meter, _iterate
from .extnat import INF, ext_sub, is_extnat
from .multisets import FiniteMultiset, TupleMatrix, _compiled, _split_orders, _walk
from .repetition import RepetitionFunction
from .minors import _check_members, _skolem_search

__all__ = [
    "BoxedGenerator",
    "Cluster",
    "ClusterVerdict",
    "breadth",
    "breadth_restrict",
    "cluster_member",
    "cluster_minor_member",
    "cluster_union",
    "empty_cluster",
    "enumerate_cluster_members",
    "equality_cluster",
    "materialize_minor",
    "order_cluster",
    "quotient",
    "relation_cluster",
    "satisfies_cluster",
    "trivial_cluster",
]


@dataclass(frozen=True)
class BoxedGenerator:
    """A multiplicity box (repetition function) plus a cardinality cap."""

    box: RepetitionFunction
    cap: object  # int or INF

    def __post_init__(self):
        if not isinstance(self.box, RepetitionFunction):
            raise GaloisKitError(f"generator box {self.box!r} is not a repetition function")
        if not is_extnat(self.cap):
            raise GaloisKitError(f"invalid generator cap {self.cap!r}")

    def admits(self, counts, size):
        """True iff the multiset with these counts and cardinality lies in the box."""
        return size <= self.cap and self.box.bounds(counts)


@dataclass(frozen=True)
class Cluster:
    """Finite union of boxed generators; denotes a downward-closed family."""

    arity: int
    domain_size: int
    generators: frozenset

    def __post_init__(self):
        _check_int("cluster arity", self.arity)
        _check_int("domain size", self.domain_size)
        if self.arity < 1 or self.domain_size < 1:
            raise GaloisKitError("cluster arity and domain size must be positive")
        generators = self.generators
        if type(generators) is not frozenset:  # a frozenset is kept as it is, not hashed again
            generators = list(_iterate("cluster generators", generators))
        for g in generators:
            if not isinstance(g, BoxedGenerator):
                raise GaloisKitError(f"cluster generator {g!r} is not a boxed generator")
            if g.box.arity != self.arity or g.box.domain_size != self.domain_size:
                raise GaloisKitError("generator arity/domain mismatch with cluster")
        object.__setattr__(self, "generators", frozenset(generators))

    def sorted_generators(self):
        """The generators by cap, then default, then sorted exceptions."""
        return list(self._generator_order)

    @cached_property
    def _generator_order(self):
        # sorted once per cluster: the key reads every exception of every box
        return tuple(sorted(
            self.generators,
            key=lambda g: (g.cap, g.box.default, sorted(g.box.exceptions.items())),
        ))

    def __repr__(self):
        return (
            f"Cluster(m={self.arity}, k={self.domain_size}, "
            f"{len(self.generators)} generators)"
        )


def cluster_member(s, cluster):
    """True iff some generator boxes-and-caps the multiset."""
    if s.arity != cluster.arity:
        raise GaloisKitError("multiset arity does not match the cluster")
    return _admitted(cluster.generators, s.counts)


def _admitted(generators, counts):
    """True iff some generator admits the multiset with these counts."""
    size = sum(counts.values())
    return any(g.admits(counts, size) for g in generators)


def _at_least(allows, exact, t, c):
    """The generators whose box allows c >= 1 copies of t."""
    mask = allows.get(t, 0)
    if mask:
        for v, gens in exact[t].items():
            if v < c:
                mask &= ~gens
    return mask


def _check_limit(name, value):
    """Refuse a cardinality limit that is neither a nonnegative int nor INF."""
    if not is_extnat(value):
        raise GaloisKitError(f"{name} must be nonnegative: an int or inf, not {value!r}")


def _compiled_cluster(cluster):
    """The ``_compiled`` masks of the cluster's generators, bit i standing
    for the i-th in ``sorted_generators`` order."""
    return _compiled([(g.box, g.cap) for g in cluster.sorted_generators()])


def _members(compiled, limit, meter):
    """All members of cardinality <= limit, each once and one "cluster
    members" step, in the order of the walk, as ``(size, items, live)``:
    ``items`` are the member's sorted (tuple, count) pairs, and ``live``
    is the mask of the ``_compiled`` generators that admit the member.
    Sorted, they come by cardinality, then by items, the order of
    ``enumerate_cluster_members``.  The walk is refused at the first
    member past the budget, and the steps are charged once, at its end."""
    caps, allows, exact = compiled
    top = min(limit, caps[-1]) if caps else 0
    if top == INF:
        raise GaloisKitError("member enumeration needs a finite cardinality limit")
    room = meter.room("cluster members")
    counts, chosen, members = {}, [], []
    for live in _walk(caps, allows, exact, int(top), counts, chosen):
        if len(members) == room:
            meter.refuse("cluster members", room)
        members.append((len(chosen), tuple(counts.items()), live))
    if members:
        meter.charge("cluster members", len(members))
    return members


def _boxes(cluster, limit, meter):
    """The cluster's distinct boxes, as members ``(size, items)`` with
    sorted items, when every generator's box has default 0 and a total
    within its cap and ``limit``; else None.  Each such box is then a
    member, and every member of cardinality <= limit lies below one.
    Each box is one "cluster members" step of ``Meter.counted``."""
    members = set()
    for g in cluster.generators:
        counts = g.box.exceptions
        size = sum(counts.values())  # inf if a count is
        if g.box.default or size > g.cap or size > limit:
            return None
        members.add((size, tuple(sorted(counts.items()))))
    return list(meter.counted("cluster members", members))


def enumerate_cluster_members(cluster, limit):
    """All members of cardinality <= limit, each once, by cardinality, then
    by sorted (tuple, count) items: the order ``satisfies_cluster`` checks."""
    _check_limit("limit", limit)
    with Meter() as meter:
        members = sorted(_members(_compiled_cluster(cluster), limit, meter))
    return [FiniteMultiset(cluster.arity, dict(items)) for _, items, _ in members]


@dataclass(frozen=True)
class ClusterVerdict:
    """Satisfaction up to a breadth bound, with a concrete violating split."""

    satisfied: bool
    breadth_cap: int
    witness: object = None  # (m1, m2, output multiset)

    def __bool__(self):
        return self.satisfied


def satisfies_cluster(f, cluster, breadth_cap):
    """Exhaustive cluster satisfaction at the given breadth bound.

    Checks every member S with |S| <= breadth_cap and every ordered
    selection [M1 | M2] with n = arity(f) columns in M1; the verdict
    equals exact satisfaction of the breadth restriction of the cluster.
    The witness is the first violating split, members in the order of
    ``enumerate_cluster_members`` and splits in that of ``split_enumerate``.

    The cluster's compile and sorted walk at the last breadth cap are
    kept in the cluster, with the steps they charged, when the walk is at
    most ``_KEEP`` members.  A later check at that cap reads them when
    those steps fit (``Meter.charge_kept``), and compiles and walks again
    when they do not, so the checks of one cluster, such as
    ``separating_cluster``'s, compile and walk it once, and each charges
    and refuses as a fresh walk does.
    """
    _check_limit("breadth cap", breadth_cap)
    if f.domain_size != cluster.domain_size or f.codomain_size != cluster.domain_size:
        raise GaloisKitError("operation alphabet does not match the cluster")
    if breadth_cap < f.arity:
        raise GaloisKitError(
            f"breadth cap {breadth_cap} is below the arity {f.arity}: no split exists"
        )
    walked = cluster.__dict__.get("_walked")  # (breadth cap, steps, compiled, sorted members)
    with Meter() as meter:
        if walked is not None and walked[0] == breadth_cap and meter.charge_kept(walked[1]):
            compiled, members = walked[2:]
        else:
            support = meter.done.get("support tuples", 0)  # a positive default's support
            compiled = _compiled_cluster(cluster)
            members = sorted(_members(compiled, breadth_cap, meter))
            if len(members) <= _KEEP:
                steps = {"support tuples": meter.done.get("support tuples", 0) - support,
                         "cluster members": len(members)}
                cluster.__dict__["_walked"] = breadth_cap, steps, compiled, members
        found = _violation(f.table, f.arity, compiled, members, meter,
                           _kept_scaled(f.domain_size, f.arity))
    if found is None:
        return ClusterVerdict(True, breadth_cap)
    cols, image, rest = found
    out = dict(rest)
    out[image] = out.get(image, 0) + 1
    witness = (
        TupleMatrix(cluster.arity, cols),
        FiniteMultiset(cluster.arity, rest),
        FiniteMultiset(cluster.arity, out),
    )
    return ClusterVerdict(False, breadth_cap, witness)


# the most split selections kept across split checks, per arity, and the
# most members of a cluster's kept walk
_KEEP = 4096


class _Store(dict):
    """A store of what its subclass builds, each entry kept while the
    entries weigh at most a bound in all: a heavier entry is not kept,
    and one that would pass the bound drops the entries kept before it.
    A hit is a plain dict read; the build runs only on a miss."""

    held = 0  # the weight kept, in all

    def keep(self, key, value, weight, bound):
        """``value``, kept at ``key`` if its ``weight`` is within ``bound``."""
        if weight <= bound:
            if self.held + weight > bound:
                self.clear()
                self.held = 0
            self[key] = value
            self.held += weight
        return value


class _KeptOrders(_Store):
    """Split orders by member counts, for one arity, read by the
    ``_violation`` checks of ``satisfies_cluster`` and the
    ``_cluster_tests`` compiles of ``c_pol``, weighing a selection each,
    at most ``_KEEP`` in all.  Only complete lists are kept, never one a
    budget cut short."""

    def build(self, counts, n, left):
        """The ``_split_orders`` of a member's counts at width n.  At most
        one order past ``left``, the room left (or inf), is built, to show
        a list the budget cuts short; that list is not kept."""
        limit = None if left == INF else left + 1
        orders = _split_orders(tuple([min(c, n) for c in counts]), n, limit)
        if limit is None or len(orders) < limit:
            self.keep(counts, orders, len(orders), _KEEP)
        return orders


@lru_cache(maxsize=None)
def _kept_orders(n):
    """The ``_KeptOrders`` of arity n, shared by every check and compile."""
    return _KeptOrders()


# the most ints, one more per tuple, kept in the scaled vectors of one (k, n)
_KEEP_SCALED = 65536


class _Scaled(_Store):
    """Each m-tuple t's column vectors t * k^(n-1), ..., t * k over domain
    size k, one per column of an n-column prefix, built on first use and
    kept while they hold at most ``_KEEP_SCALED`` ints, each tuple
    counting one more."""

    def __init__(self, k, n):
        super().__init__()
        self.powers = [k ** e for e in range(n - 1, 0, -1)]

    def __missing__(self, t):
        vectors = [tuple([x * power for x in t]) for power in self.powers]
        return self.keep(t, vectors, 1 + len(t) * len(vectors), _KEEP_SCALED)


@lru_cache(maxsize=16)
def _kept_scaled(k, n):
    """The ``_Scaled`` vectors over domain size k for n-column prefixes,
    shared by every ``satisfies_cluster`` check and ``c_pol`` compile at
    (k, n); only the most recent 16 (k, n) are kept."""
    return _Scaled(k, n)


def _remainder(allows, exact, tuples, counts, positions, fits):
    """M2 of the split [M1 | M2] of a member, with these tuples and counts,
    whose M1 takes these positions: its counts, a list aligned with
    ``tuples``, and m2, the generators of the mask ``fits`` that admit M2.
    With ``fits`` the generators whose cap admits |M2| + 1, the output
    M2 + t lies in the cluster iff m2 & ``_at_least``(t, M2(t) + 1) is
    non-zero: the rule of both ``_violation`` and ``_cluster_tests``."""
    rest = list(counts)
    for x in positions:
        rest[x] -= 1
    m2 = fits
    for t, c in zip(tuples, rest):
        if c and m2:
            m2 &= _at_least(allows, exact, t, c)
    return rest, m2


def _violation(table, n, compiled, members, meter, scaled):
    """The first split of one of the members of the ``_compiled``
    cluster, as ``_members`` lists them and sorted, whose output leaves
    the cluster under the n-ary table, as ``(columns of M1, image,
    counts of M2)``, or None if there is none: the check of
    ``satisfies_cluster``, unvalidated, charged to ``meter``.

    A member's splits are the ``_split_orders`` of its counts, read
    through ``_kept_orders``; ``scaled`` holds the ``_Scaled``
    vectors over the table's domain, and may serve every n-ary table over
    that domain.  The row ranks of M1 are its prefix's scaled vectors
    summed, once per prefix, plus its last column.  Each split is a
    "cluster splits" step, refused at the first one past the budget; no
    more orders are built than the budget has room for.  A split's output
    is admitted by a generator that admits the member, by the one-copy
    test when M2 is empty, or else by the ``_remainder`` rule.
    """
    caps, allows, exact = compiled
    get = table.__getitem__
    orders = _kept_orders(n)
    phase = "cluster splits"
    room, taken = meter.room(phase), 0
    for member_size, items, live in members:
        size = member_size - n + 1  # |f M1| + |M2|
        if size <= 0:
            continue
        tuples, counts = zip(*items)
        sels = orders.get(counts) or orders.build(counts, n, room - taken)
        before, taken = taken, taken + len(sels)
        if taken > room:  # check the splits within the budget, then refuse
            sels = sels[:room - before]
        # Tuples are built from lists, [*map(...)]: tuple() gives an
        # iterator's result 10 slots and shrinks it, so every such tuple is
        # a fresh allocation, and once dropped it is kept on the
        # interpreter's free list of its size, up to 2000 of them.
        last = None
        for q, p, positions in sels:
            if q != last:  # a new prefix: the zeros, for n = 1, or its columns summed
                last, base = q, scaled[tuples[positions[0]]][0] if n > 1 else repeat(0)
                for d in range(1, n - 1):
                    base = [*map(add, base, scaled[tuples[positions[d]]][d])]
            image = tuple([*map(get, map(add, base, tuples[p]))])
            # The output f M1 + M2 is no larger than the member and has
            # no more of any tuple but the image, so every live generator
            # admits it if the image is a column of M1, and one does if
            # its box allows the image's new count.
            if image in tuples:
                i = tuples.index(image)
                held = counts[i]  # M2(image), unless the image is a column of M1
                if live & ~exact[image].get(held, 0) or i in positions:
                    continue
            elif live & allows.get(image, 0):
                continue
            else:
                held = 0
            j = bisect_left(caps, size)
            fits = (1 << len(caps)) - 1 >> j << j  # the generators whose cap admits |M2| + 1
            if size == 1 and fits & allows.get(image, 0):  # M2 is empty: the output is {f M1}
                continue
            rest, m2 = _remainder(allows, exact, tuples, counts, positions, fits)
            if m2 & _at_least(allows, exact, image, held + 1):
                continue
            meter.charge(phase, before + sels.index((q, p, positions)) + 1)
            return tuple([tuples[x] for x in positions]), image, dict(zip(tuples, rest))
        if taken > room:
            meter.refuse(phase, room)
    if taken:
        meter.charge(phase, taken)
    return None


class _Excluding(frozenset):
    """An allowed image set kept as its complement: every image but these."""

    __slots__ = ()

    def __contains__(self, image):
        return not frozenset.__contains__(self, image)


def _share(allowed, space):
    """The share of a space of images that an allowed set allows."""
    return (space - len(allowed) if type(allowed) is _Excluding else len(allowed)) / space


def _intersect(a, b):
    """The images both allowed sets allow."""
    if type(a) is _Excluding:
        a, b = b, a
    if type(a) is _Excluding:
        return _Excluding(frozenset.union(a, b))
    return frozenset.difference(a, b) if type(b) is _Excluding else a & b


def _allowed_images(generators, m2):
    """The images t such that some generator in the mask m2 allows one
    copy of t, built from those generators' boxes: a set, or an
    ``_Excluding`` set when some box has a positive default."""
    allowed, excluded = set(), None
    while m2:
        box = generators[(m2 & -m2).bit_length() - 1].box
        m2 &= m2 - 1
        if box.default:  # it allows every image but its zeros
            zeros = {t for t, v in box.exceptions.items() if not v}
            excluded = zeros if excluded is None else excluded & zeros
        else:
            allowed.update(box.exceptions)
    return frozenset(allowed) if excluded is None else _Excluding(excluded - allowed)


def _cluster_tests(cluster, compiled, members, n, scaled, tests, meter):
    """Merge into ``tests``, a dict from rank vector to allowed images,
    the test of every split [M1 | M2] with n columns in M1 of the listed
    members of the ``_compiled`` cluster, each as ``(size, items)``: an
    n-ary table maps each such member into the cluster iff its image of
    M1's row ranks is an image t with M2 + t in the cluster, for every
    split.

    Those images are {t : m2 & ``_at_least``(t, M2(t) + 1) != 0}, with
    M2 and m2 from ``_remainder``: the images one generator in m2 allows,
    built once per m2, less the tuples of M2 no generator in m2 allows
    one more copy of.  M2 depends
    only on which positions M1 takes, so it is built once per set of
    positions; a test that allows every image is dropped, and tests on
    one rank vector are merged by intersecting their allowed images.
    ``scaled`` holds the ``_Scaled`` vectors over the cluster's domain.
    A member's splits are the ``_split_orders`` of its counts, read
    through ``_kept_orders``, as ``_violation`` reads them.  Each split
    is a "cluster splits" step, refused as soon as the phase passes the
    budget; no more orders are built than it has room for.
    """
    caps, allows, exact = compiled
    generators = cluster.sorted_generators()
    space = cluster.domain_size ** cluster.arity
    full = (1 << len(caps)) - 1
    images = {}  # m2 -> _allowed_images(generators, m2)
    orders = _kept_orders(n)
    phase = "cluster splits"
    room, taken = meter.room(phase), 0
    for member_size, items in members:
        if member_size < n:
            continue
        tuples, counts = zip(*items)
        sels = orders.get(counts) or orders.build(counts, n, room - taken)
        taken += len(sels)
        if taken > room:
            meter.refuse(phase, room)
        j = bisect_left(caps, member_size - n + 1)
        fits = full >> j << j  # the generators whose cap admits |M2| + 1
        after = {}  # the positions M1 takes, sorted -> the images allowed, or None for all
        last = None
        for q, p, positions in sels:
            key = tuple(sorted(positions))
            if key not in after:
                rest, m2 = _remainder(allows, exact, tuples, counts, positions, fits)
                allowed = images.get(m2)
                if allowed is None:
                    allowed = images[m2] = _allowed_images(generators, m2)
                dropped = [t for t, c in zip(tuples, rest)
                           if c and m2 & allows[t] and not m2 & _at_least(allows, exact, t, c + 1)]
                if dropped:
                    allowed = _intersect(allowed, _Excluding(dropped))
                if len(allowed) == (0 if type(allowed) is _Excluding else space):
                    allowed = None
                after[key] = allowed
            allowed = after[key]
            if allowed is None:
                continue
            if q != last:  # a new prefix: the zeros, for n = 1, or its columns summed
                last, base = q, scaled[tuples[positions[0]]][0] if n > 1 else repeat(0)
                for d in range(1, n - 1):
                    base = [*map(add, base, scaled[tuples[positions[d]]][d])]
            ranks = tuple([*map(add, base, tuples[p])])
            held = tests.get(ranks)
            tests[ranks] = allowed if held is None else _intersect(held, allowed)
    if taken:
        meter.charge(phase, taken)


def _rf_minus_counts(box, s):
    """box - nu_S pointwise, with inf - n = inf."""
    exc = dict(box.exceptions)
    keys = set(exc) | set(s.counts)
    new_exc = {t: ext_sub(box.value(t), s.multiplicity(t)) for t in keys}
    return RepetitionFunction(box.arity, box.domain_size, box.default, new_exc)


def quotient(cluster, s):
    """Phi / S: the multisets whose join with S stays in the cluster."""
    if s.arity != cluster.arity:
        raise GaloisKitError("multiset arity does not match the cluster")
    gens = set()
    for g in cluster.generators:
        if g.admits(s.counts, s.cardinality):
            gens.add(
                BoxedGenerator(_rf_minus_counts(g.box, s), ext_sub(g.cap, s.cardinality))
            )
    return Cluster(cluster.arity, cluster.domain_size, frozenset(gens))


def cluster_union(family):
    family = list(family)
    if not family:
        raise GaloisKitError("union of an empty family")
    first = family[0]
    gens = set()
    for c in family:
        if (c.arity, c.domain_size) != (first.arity, first.domain_size):
            raise GaloisKitError("cluster arity mismatch in union")
        gens |= c.generators
    return Cluster(first.arity, first.domain_size, frozenset(gens))


def breadth_restrict(cluster, p):
    """Cap every generator's cardinality at p."""
    _check_limit("breadth", p)
    gens = frozenset(
        BoxedGenerator(g.box, min(g.cap, p)) for g in cluster.generators
    )
    return Cluster(cluster.arity, cluster.domain_size, gens)


def breadth(cluster):
    """Max member cardinality: max over generators of min(cap, box mass)."""
    best = 0
    for g in cluster.generators:
        best = max(best, g.box.total(g.cap))
    return best


def trivial_cluster(m, p, domain_size):
    """All multisets of cardinality at most p (p = 0 still contains epsilon)."""
    _check_limit("breadth", p)
    box = RepetitionFunction.constant(m, domain_size, INF)
    return Cluster(m, domain_size, frozenset({BoxedGenerator(box, p)}))


def empty_cluster(m, domain_size):
    """The empty family: not even the empty multiset is a member."""
    return Cluster(m, domain_size, frozenset())


def equality_cluster(domain_size):
    """Binary cluster of multisets supported on the diagonal only."""
    _check_int("domain size", domain_size)
    return relation_cluster({(a, a) for a in range(domain_size)}, 2, domain_size)


def relation_cluster(relation, m, domain_size):
    """Multisets supported inside the relation, unbounded cardinality."""
    _check_int("arity", m)
    _check_int("domain size", domain_size)
    exc = {tuple(t): INF for t in relation}
    for t in exc:
        if len(t) != m or any(not 0 <= x < domain_size for x in t):
            raise GaloisKitError(f"relation tuple {t!r} invalid")
    box = RepetitionFunction(m, domain_size, 0, exc)
    return Cluster(m, domain_size, frozenset({BoxedGenerator(box, INF)}))


def _validate_poset(leq, domain_size):
    _check_int("domain size", domain_size)
    pairs = {tuple(p) for p in leq}
    elements = range(domain_size)
    for p in pairs:
        if len(p) != 2 or not all(x in elements for x in p):
            raise GaloisKitError(f"order pair {p!r} is not a pair over domain size {domain_size}")
    for a in elements:
        if (a, a) not in pairs:
            raise GaloisKitError("order must be reflexive")
    for a, b in pairs:
        if a != b and (b, a) in pairs:
            raise GaloisKitError("order must be antisymmetric")
    for a, b in pairs:
        for c in elements:
            if (b, c) in pairs and (a, c) not in pairs:
                raise GaloisKitError("order must be transitive")
    return pairs


def order_cluster(leq, domain_size):
    """Quaternary cluster characterizing per-variable monotone-or-antitone operations.

    A quadruple (a, b, c, d) is forbidden when the two pairs move in
    opposite directions or are incomparable, free when both pairs are
    constant, and a strict witness otherwise; at most one strict witness
    may appear in a member.
    """
    pairs = _validate_poset(leq, domain_size)

    def le(a, b):
        return (a, b) in pairs

    forbidden, strict, free = [], [], []
    for t in product(range(domain_size), repeat=4):
        a, b, c, d = t
        if not (le(a, b) or le(b, a)) or not (le(c, d) or le(d, c)):
            forbidden.append(t)
        elif (le(a, b) and not le(b, a) and le(d, c) and not le(c, d)) or (
            le(b, a) and not le(a, b) and le(c, d) and not le(d, c)
        ):
            forbidden.append(t)
        elif a == b and c == d:
            free.append(t)
        else:
            strict.append(t)

    gens = set()
    base = {t: 0 for t in forbidden}
    for x in strict:
        exc = dict(base)
        for y in strict:
            exc[y] = 1 if y == x else 0
        gens.add(
            BoxedGenerator(RepetitionFunction(4, domain_size, INF, exc), INF)
        )
    exc = dict(base)
    for y in strict:
        exc[y] = 0
    gens.add(BoxedGenerator(RepetitionFunction(4, domain_size, INF, exc), INF))
    return Cluster(4, domain_size, frozenset(gens))


def cluster_minor_member(m, clusters, scheme):
    """Membership oracle for the conjunctive minor of a cluster family.

    True iff per-column Skolem maps exist sending every mapped matrix
    into its cluster; exhausted over all |A|^(|V| * n) assignments.
    """
    exists = _minor_search(clusters, scheme)
    if m.row_count != scheme.target:
        raise GaloisKitError("matrix row count must equal the scheme target")
    return exists(m.columns)


def _minor_search(clusters, scheme):
    """The Skolem search of a cluster minor, one cluster per scheme map."""
    clusters = _check_members(scheme, clusters, "cluster")
    tests = [partial(_admitted, c.generators) for c in clusters]
    return _skolem_search(scheme, tests, clusters[0].domain_size)


def materialize_minor(clusters, scheme, breadth_cap):
    """Explicit antichain presentation of a cluster conjunctive minor.

    Enumerates every multiset up to the breadth cap through the
    membership oracle and stores the maximal members as boxed
    generators (box = the multiset, cap = its cardinality).
    """
    _check_limit("breadth cap", breadth_cap)
    if breadth_cap == INF:  # the walk would never end
        raise GaloisKitError("materialize_minor needs a finite breadth cap, not inf")
    clusters = list(clusters)
    with Meter() as meter:
        exists = _minor_search(clusters, scheme)
        k = clusters[0].domain_size
        m = scheme.target
        caps, allows, exact = _compiled([(RepetitionFunction.constant(m, k, INF), INF)])
        counts, chosen = {}, []
        walk = _walk(caps, allows, exact, breadth_cap, counts, chosen)
        members = [dict(counts) for _ in meter.counted("minor multisets", walk)
                   if exists(chosen)]
        return _antichain_cluster(m, k, members)


def _antichain_cluster(m, k, members):
    """The downward closure of a finite family of distinct count dicts.

    One boxed generator per maximal member: box = the multiset, cap =
    its cardinality.  Members are taken largest first.  A member below
    another lies below a maximal one, which is strictly larger and holds
    every tuple the member holds, so each member is tested only against
    the maximal members kept so far that hold its rarest tuple, the one
    fewest of them hold.  Each subset test is one "antichain
    comparisons" step.

    The members are distinct dicts of positive int counts of m-tuples
    over range(k), and m and k are positive ints, so every box, generator
    and the cluster are valid by construction: they are built without
    running their checks again, the boxes through
    ``RepetitionFunction._store`` so they stay canonical.  A box keeps its
    member's dict as its exceptions, so the caller must not change it.
    """
    meter = _current_meter()
    kept = []  # (size, counts) of the maximal members, largest first
    holders = {}  # tuple -> the counts of the kept members holding it
    members = sorted(((sum(s.values()), s) for s in members), key=itemgetter(0), reverse=True)
    for size, group in groupby(members, key=itemgetter(0)):
        fresh = []
        for _, s in group:
            keys, items = s.keys(), s.items()
            # the empty member is held by every kept member
            rare = min((holders.get(x, ()) for x in keys), key=len,
                       default=[t for _, t in kept])
            hit = next((i for i, t in enumerate(rare, 1)
                        if keys <= t.keys() and all(c <= t[x] for x, c in items)), 0)
            meter.charge("antichain comparisons", hit or len(rare))
            if not hit:
                fresh.append((size, s))
        for size, s in fresh:
            kept.append((size, s))
            for x in s:
                holders.setdefault(x, []).append(s)
    new, put = object.__new__, object.__setattr__
    gens = set()
    for size, s in kept:
        box = new(RepetitionFunction)
        box._store(m, k, 0, s)
        g = new(BoxedGenerator)
        put(g, "box", box)
        put(g, "cap", size)
        gens.add(g)
    cluster = new(Cluster)
    put(cluster, "arity", m)
    put(cluster, "domain_size", k)
    put(cluster, "generators", frozenset(gens))
    return cluster
