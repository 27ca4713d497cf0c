"""Minor formation schemes, Skolem exhaustion, and conjunctive-minor predicates.

A scheme is a family of index maps h_j from source coordinates into
target coordinates plus named indeterminates; a Skolem map assigns
domain values to the indeterminates.  On a finite domain every
existential is exhausted outright, so relation minors are computed
exactly; the repetition-function minor predicates quantify over all
matrix widths and are therefore checked up to an explicit column cap.
"""

from dataclasses import dataclass
from itertools import product

from .errors import GaloisKitError, _check_int, _current_meter, _iterate, _refuse_non_sequence
from .extnat import INF
from .multisets import TupleMatrix, _compiled, _counts, _walk
from .repetition import RepetitionFunction

__all__ = [
    "MinorScheme",
    "MinorVerdict",
    "apply_scheme_map",
    "compose_schemes",
    "is_conjunctive_minor_constraint",
    "is_extensive_rf_minor",
    "is_restrictive_rf_minor",
    "scheme_fixture",
    "tight_relation_minor",
]


@dataclass(frozen=True)
class MinorScheme:
    """Scheme with target m, named indeterminates, and maps h_j.

    Each map is a tuple whose entries are either 0-based target indices
    (ints < target) or indeterminate names (strings).
    """

    target: int
    indeterminates: tuple
    maps: tuple

    def __post_init__(self):
        _check_int("scheme target", self.target)
        if self.target < 1:
            raise GaloisKitError("scheme target must be positive")
        indeterminates = tuple(_iterate("scheme indeterminates", self.indeterminates))
        for v in indeterminates:
            if not isinstance(v, str):
                raise GaloisKitError(f"indeterminate {v!r} is not a name: a str")
        object.__setattr__(self, "indeterminates", indeterminates)
        maps = tuple(_iterate("scheme maps", self.maps))
        try:
            maps = tuple([tuple(h) for h in maps])
        except TypeError:
            _refuse_non_sequence("scheme map", maps)
            raise
        object.__setattr__(self, "maps", maps)
        if not self.maps:
            raise GaloisKitError("a scheme needs at least one map")
        names = set(self.indeterminates)
        if len(names) != len(self.indeterminates):
            raise GaloisKitError("duplicate indeterminate names")
        for h in self.maps:
            if not h:
                raise GaloisKitError("source arities must be positive")
            for e in h:
                if isinstance(e, int):
                    if not 0 <= e < self.target:
                        raise GaloisKitError(f"index {e} out of target range")
                elif not (isinstance(e, str) and e in names):
                    raise GaloisKitError(f"unknown indeterminate {e!r}")

    @property
    def source_arities(self):
        return tuple(len(h) for h in self.maps)

    @classmethod
    def identity(cls, m):
        _check_int("scheme target", m)
        return cls(m, (), (tuple(range(m)),))


def apply_scheme_map(a, sigma, h):
    """(a + sigma) h: component i is a[h(i)] for an index, sigma[h(i)] for a var."""
    return tuple(a[e] if isinstance(e, int) else sigma[e] for e in h)


def skolem_maps(indeterminates, k):
    """All assignments of domain values to the indeterminates, deterministic order."""
    names = tuple(indeterminates)
    for values in product(range(k), repeat=len(names)):
        yield dict(zip(names, values))


def compose_schemes(outer, inner_schemes):
    """The composite scheme: one inner scheme per outer map.

    Entry i of the composite map for (j, i) resolves the inner entry
    through the outer map h_j; inner indeterminates are kept and renamed
    with a deterministic "~j" suffix on collision.
    """
    inner_schemes = list(inner_schemes)
    if len(inner_schemes) != len(outer.maps):
        raise GaloisKitError("need exactly one inner scheme per outer map")
    for h, inner in zip(outer.maps, inner_schemes):
        if inner.target != len(h):
            raise GaloisKitError("inner scheme target must equal the outer source arity")
    used = set(outer.indeterminates)
    all_vars = list(outer.indeterminates)
    renamings = []
    for j, inner in enumerate(inner_schemes):
        ren = {}
        for v in inner.indeterminates:
            name = v
            while name in used:
                name = f"{name}~{j}"
            ren[v] = name
            used.add(name)
            all_vars.append(name)
        renamings.append(ren)
    maps = []
    for j, (h, inner) in enumerate(zip(outer.maps, inner_schemes)):
        ren = renamings[j]
        for hi in inner.maps:
            maps.append(
                tuple(h[e] if isinstance(e, int) else ren[e] for e in hi)
            )
    return MinorScheme(outer.target, tuple(all_vars), tuple(maps))


def tight_relation_minor(scheme, relations, domain_size):
    """R = { a : exists sigma, forall j, (a + sigma) h_j in R_j }, exact."""
    _check_int("domain size", domain_size, positive=True)
    relations = [frozenset(map(tuple, r)) for r in relations]
    if len(relations) != len(scheme.maps):
        raise GaloisKitError("need one relation per scheme map")
    domain = range(domain_size)
    for j, (r, h) in enumerate(zip(relations, scheme.maps)):
        for t in r:
            if len(t) != len(h):
                raise GaloisKitError(
                    f"relation {j} tuple {t!r} has length {len(t)}, but map {j} has {len(h)}")
            if not all(x in domain for x in t):
                raise GaloisKitError(
                    f"relation {j} tuple {t!r} has an entry outside domain size {domain_size}")
    out = set()
    meter = _current_meter()
    for a in product(range(domain_size), repeat=scheme.target):
        sigmas = skolem_maps(scheme.indeterminates, domain_size)
        for sigma in meter.counted("Skolem maps", sigmas):
            if all(
                apply_scheme_map(a, sigma, h) in r
                for h, r in zip(scheme.maps, relations)
            ):
                out.add(a)
                break
    return frozenset(out)


@dataclass(frozen=True)
class MinorVerdict:
    """Outcome of a bounded minor predicate check.

    The underlying condition quantifies over matrices of every width;
    this verdict is conclusive only for widths up to col_cap and is
    always labeled bounded.
    """

    holds: bool
    col_cap: int
    counterexample: object = None
    bounded: bool = True

    def __bool__(self):
        return self.holds


def default_col_cap(scheme):
    return max(scheme.source_arities) + 2


def _family_respected(images, accepts):
    """True iff, for every map h_j, accepts[j] holds of the j-th mapped columns.

    ``images`` holds one entry per column: its mapped tuple per map.
    """
    return all(
        accept(_counts([image[j] for image in images]))
        for j, accept in enumerate(accepts)
    )


def _skolem_search(scheme, accepts, k):
    """exists(columns): do Skolem maps send the columns into the family?

    The family is one test per scheme map on the count dict of the mapped
    columns: ``phi.bounds``, or cluster admission.  The answer depends
    only on the column multiset.  The Skolem maps range over V, the
    indeterminates some map reads: one that no map reads changes no
    image.  The k^|V| maps are listed once per call of this factory, one
    "Skolem maps" step per entry, charged before they are built; so are
    a column's mapped tuples under every Skolem map, one step per tuple,
    on the column's first use.
    """
    read = {e for h in scheme.maps for e in h}
    names = tuple([v for v in scheme.indeterminates if v in read])
    meter = _current_meter()
    if names:
        meter.charge_power("Skolem maps", k, len(names), times=len(names))
    sigmas = list(skolem_maps(names, k))
    images, per_column_steps = {}, len(sigmas) * len(scheme.maps)

    def exists(columns):
        per_column = []
        for col in columns:
            if col not in images:
                meter.charge("Skolem maps", per_column_steps)
                images[col] = [
                    tuple(apply_scheme_map(col, sigma, h) for h in scheme.maps)
                    for sigma in sigmas
                ]
            per_column.append(images[col])
        choices = meter.counted("Skolem maps", product(*per_column))
        return any(_family_respected(chosen, accepts) for chosen in choices)

    return exists


def _column_multisets(phi, col_cap):
    """Every selection M < phi of 1 to col_cap columns, one per column
    multiset, widths ascending.

    Each multiset comes as its sorted arrangement, its first ordering in
    the stream of ``enumerate_matrices_leq``, and the multisets of one
    width come in the order of those arrangements.  Yields (columns,
    counts): the live list of the columns and their live multiplicity
    dict, which a caller that keeps them copies.
    """
    caps, allows, exact = _compiled([(phi, INF)])
    meter = _current_meter()
    for n in range(1, col_cap + 1):
        counts, chosen = {}, []
        for _ in meter.counted("minor multisets", _walk(caps, allows, exact, n, counts, chosen)):
            if len(chosen) == n:
                yield chosen, counts


def _check_members(scheme, family, what, domain_size=None):
    """The family as a list, refused unless it fits the scheme: one
    member per map h_j, the j-th of arity len(h_j), all over one domain
    size, ``domain_size`` if given."""
    family = list(family)
    if len(family) != len(scheme.maps):
        raise GaloisKitError(f"need one {what} per scheme map")
    k = family[0].domain_size if domain_size is None else domain_size
    for j, (x, h) in enumerate(zip(family, scheme.maps)):
        if x.arity != len(h):
            raise GaloisKitError(f"{what} {j} has arity {x.arity}, but map {j} has {len(h)}")
        if x.domain_size != k:
            raise GaloisKitError(f"{what} {j} has domain size {x.domain_size}, not {k}")
    return family


def _check_family(phi, phis, scheme, col_cap):
    """The family and the column cap of an rf-minor predicate, refused
    unless phi and the family fit the scheme."""
    phis = _check_members(scheme, phis, "repetition function", phi.domain_size)
    if phi.arity != scheme.target:
        raise GaloisKitError(
            f"phi has arity {phi.arity}, but the scheme target is {scheme.target}")
    if col_cap is None:
        return phis, default_col_cap(scheme)
    _check_int("column cap", col_cap, positive=True)
    return phis, col_cap


def is_restrictive_rf_minor(phi, phis, scheme, col_cap=None):
    """Bounded check: M < phi implies Skolem maps exist mapping M into the family.

    Both sides depend on M only through its column multiset, so one
    sorted arrangement per multiset is checked; the counterexample is
    the first one in ``enumerate_matrices_leq`` order, widths ascending.
    """
    phis, col_cap = _check_family(phi, phis, scheme, col_cap)
    exists = _skolem_search(scheme, [p.bounds for p in phis], phi.domain_size)
    for cols, _ in _column_multisets(phi, col_cap):
        if not exists(cols):
            return MinorVerdict(False, col_cap, TupleMatrix(phi.arity, cols))
    return MinorVerdict(True, col_cap)


def is_extensive_rf_minor(phi, phis, scheme, col_cap=None):
    """Bounded check: whenever Skolem maps exist for M, M < phi holds.

    Checked on one sorted arrangement per column multiset, as in
    ``is_restrictive_rf_minor``.
    """
    phis, col_cap = _check_family(phi, phis, scheme, col_cap)
    k = phi.domain_size
    exists = _skolem_search(scheme, [p.bounds for p in phis], k)
    everything = RepetitionFunction.constant(phi.arity, k, INF)
    for cols, counts in _column_multisets(everything, col_cap):
        if not phi.bounds(counts) and exists(cols):
            return MinorVerdict(False, col_cap, TupleMatrix(phi.arity, cols))
    return MinorVerdict(True, col_cap)


def is_conjunctive_minor_constraint(c, family, scheme, col_cap=None):
    """Bounded conjunctive-minor predicate for generalized constraints.

    Restrictive (bounded) on the antecedents; exact extensive test on the
    consequents via containment of the tight relation minor.
    """
    family = list(family)
    if len(family) != len(scheme.maps):
        raise GaloisKitError("need one constraint per scheme map")
    if scheme.target != c.arity:
        raise GaloisKitError("scheme target must equal the constraint arity")
    for j, g in enumerate(family):
        if g.codomain_size != c.codomain_size:
            raise GaloisKitError(
                f"constraint {j} has codomain size {g.codomain_size}, not {c.codomain_size}")
    ante = is_restrictive_rf_minor(
        c.antecedent, [g.antecedent for g in family], scheme, col_cap
    )
    if not ante:
        return MinorVerdict(False, ante.col_cap, ante.counterexample)
    tight = tight_relation_minor(
        scheme, [g.consequent for g in family], c.codomain_size
    )
    if not tight <= c.consequent:
        missing = sorted(tight - c.consequent)[0]
        return MinorVerdict(False, ante.col_cap, missing)
    return MinorVerdict(True, ante.col_cap)


def scheme_fixture(kind, m):
    """The named schemes used to rebuild the distinguished constraints.

    Returns (scheme, family_arities).  Kinds:
      - trivial_from_equality(m): h: 2 -> m constant 0 (identify then spread);
        rebuilds the m-ary trivial constraint from the binary equality one.
      - equality_chain(m): h_i(0) = i, h_i(1) = i + 1 for i in 0..m-2;
        rebuilds the m-ary equality constraint from binary copies (m >= 2).
      - empty_spread(m): h: 1 -> m with h(0) = 0;
        rebuilds the m-ary empty constraint from the unary one.
    """
    if m < 1:
        raise GaloisKitError("arity must be positive")
    if kind == "trivial_from_equality":
        return MinorScheme(m, (), ((0, 0),)), (2,)
    if kind == "equality_chain":
        if m < 2:
            raise GaloisKitError("equality_chain needs m >= 2")
        maps = tuple((i, i + 1) for i in range(m - 1))
        return MinorScheme(m, (), maps), (2,) * (m - 1)
    if kind == "empty_spread":
        return MinorScheme(m, (), ((0,),)), (1,)
    raise GaloisKitError(f"unknown scheme fixture kind {kind!r}")
