"""Generalized constraints and the exact satisfaction predicate.

A constraint pairs an antecedent repetition function over the input
alphabet with a consequent relation over the output alphabet.  An
operation satisfies it when every matrix respecting the antecedent maps
row-wise into the consequent; the check is exhaustive, never sampled,
and is guarded by a work budget.
"""

from dataclasses import dataclass

from .errors import GaloisKitError, Meter, _check_entries, _check_int, _refuse_non_sequence
from .extnat import INF
from .multisets import TupleMatrix, _matrices, columns_multiset
from .repetition import RepetitionFunction, rf_leq

__all__ = [
    "ConstraintVerdict",
    "GeneralizedConstraint",
    "empty_constraint",
    "equality_constraint",
    "extend_consequent",
    "finite_restriction",
    "intersect_consequents",
    "precedes",
    "restrict_antecedent",
    "satisfies_constraint",
    "trivial_constraint",
]


def _refuse_malformed_consequent(items):
    """Refuse, naming it, a consequent that is not a collection, or its
    first tuple that is not a sequence or has an entry that is not an int
    (an unhashable entry is one): the failure path of reading it as a set
    of tuples, which raised a ``TypeError``."""
    try:
        iter(items)
    except TypeError:
        raise GaloisKitError(f"consequent {items!r} is not a collection of tuples") from None
    _refuse_non_sequence("consequent tuple", items)
    _check_entries("consequent tuple", items)


@dataclass(frozen=True)
class GeneralizedConstraint:
    """An antecedent repetition function paired with a consequent relation."""

    antecedent: RepetitionFunction
    consequent: frozenset
    codomain_size: int

    def __post_init__(self):
        _check_int("codomain size", self.codomain_size, positive=True)
        items = self.consequent
        try:
            if iter(items) is items:  # an iterator is read once: keep its items to check
                items = list(items)
            consequent = frozenset(map(tuple, items))
        except TypeError:
            _refuse_malformed_consequent(items)
            raise
        object.__setattr__(self, "consequent", consequent)
        _check_entries("consequent tuple", consequent)
        m, k_out = self.antecedent.arity, self.codomain_size
        for t in consequent:
            if len(t) != m:
                raise GaloisKitError(f"consequent tuple {t!r} invalid for arity {m}")
            if min(t) < 0 or max(t) >= k_out:
                x = next(x for x in t if not 0 <= x < k_out)
                raise GaloisKitError(
                    f"consequent tuple {t!r}: entry {x} out of range for codomain size {k_out}")

    @property
    def arity(self):
        return self.antecedent.arity

    @property
    def domain_size(self):
        return self.antecedent.domain_size


def precedes(m, phi):
    """M < phi: each tuple occurs as a column of M at most phi(tuple) times."""
    if m.row_count != phi.arity:
        raise GaloisKitError("matrix row count must equal the antecedent arity")
    return phi.bounds(columns_multiset(m).counts)


@dataclass(frozen=True)
class ConstraintVerdict:
    satisfied: bool
    witness: object = None  # first violating matrix, in enumeration order

    def __bool__(self):
        return self.satisfied


def _check_alphabets(domain_size, codomain_size, c):
    """Refuse an operation alphabet that does not match the constraint's."""
    if domain_size != c.antecedent.domain_size:
        raise GaloisKitError("operation domain does not match the antecedent domain")
    if codomain_size != c.codomain_size:
        raise GaloisKitError("operation codomain does not match the consequent alphabet")


def satisfies_constraint(f, c):
    """Exhaustively decide whether f satisfies (phi, S).

    Tests f on every n-column matrix M with M < phi (n = arity of f), in
    the order of ``enumerate_matrices_leq``, and checks f M in S; the
    first counterexample in that order is the witness.  Each matrix is a
    "constraint matrices" step; past the budget the check is refused,
    never answered wrongly.
    """
    _check_alphabets(f.domain_size, f.codomain_size, c)
    consequent, get = c.consequent, f.table.__getitem__
    with Meter():
        for prefix, col, ranks in _matrices(c.antecedent, f.arity):
            if tuple([*map(get, ranks)]) not in consequent:  # sized exactly
                return ConstraintVerdict(False, TupleMatrix(c.arity, (*prefix, col)))
    return ConstraintVerdict(True)


def restrict_antecedent(c, phi2):
    """(phi, S) -> (phi', S) with phi' <= phi (validated)."""
    if not rf_leq(phi2, c.antecedent):
        raise GaloisKitError("restriction requires phi' <= phi pointwise")
    return GeneralizedConstraint(phi2, c.consequent, c.codomain_size)


def extend_consequent(c, s2):
    """(phi, S) -> (phi, S') with S' a superset of S (validated)."""
    s2 = frozenset(map(tuple, s2))
    if not s2 >= c.consequent:
        raise GaloisKitError("extension requires S' to contain S")
    return GeneralizedConstraint(c.antecedent, s2, c.codomain_size)


def intersect_consequents(family):
    """Intersect the consequents of a family sharing one antecedent."""
    family = list(family)
    if not family:
        raise GaloisKitError("intersecting an empty family")
    first = family[0]
    if any(c.antecedent != first.antecedent for c in family[1:]):
        raise GaloisKitError("family members must share the antecedent")
    acc = first.consequent
    for c in family[1:]:
        acc &= c.consequent
    return GeneralizedConstraint(first.antecedent, acc, first.codomain_size)


def finite_restriction(c, support):
    """Zero the antecedent outside the given tuple set; consequent unchanged."""
    phi = c.antecedent
    support = {tuple(t) for t in support}
    exc = {t: phi.value(t) for t in support}
    return GeneralizedConstraint(
        RepetitionFunction(phi.arity, phi.domain_size, 0, exc),
        c.consequent,
        c.codomain_size,
    )


def _codomain(m, domain_size, codomain_size):
    """The codomain size, ``domain_size`` when None, once the arity and
    both sizes are ints."""
    k_out = codomain_size if codomain_size is not None else domain_size
    _check_int("arity", m)
    _check_int("domain size", domain_size)
    _check_int("codomain size", k_out)
    return k_out


def equality_constraint(m, domain_size, codomain_size=None):
    """Antecedent infinite on constant tuples, 0 elsewhere; consequent the diagonal."""
    k_out = _codomain(m, domain_size, codomain_size)
    if m < 1:
        raise GaloisKitError("arity must be positive")
    exc = {(a,) * m: INF for a in range(domain_size)}
    phi = RepetitionFunction(m, domain_size, 0, exc)
    diag = frozenset((b,) * m for b in range(k_out))
    return GeneralizedConstraint(phi, diag, k_out)


def empty_constraint(m, domain_size, codomain_size=None):
    """Antecedent identically 0, consequent empty."""
    k_out = _codomain(m, domain_size, codomain_size)
    return GeneralizedConstraint(
        RepetitionFunction.constant(m, domain_size, 0), frozenset(), k_out
    )


def trivial_constraint(m, domain_size, codomain_size=None):
    """Antecedent identically infinite, consequent the full tuple space."""
    from itertools import product

    k_out = _codomain(m, domain_size, codomain_size)
    phi = RepetitionFunction.constant(m, domain_size, INF)
    return GeneralizedConstraint(phi, frozenset(product(range(k_out), repeat=m)), k_out)
