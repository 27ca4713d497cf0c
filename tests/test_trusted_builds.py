"""The invariant builders skip the public constructors' checks: every
constraint of ``gc_inv`` and ``separating_constraint`` and every cluster
of ``cl_inv``, ``separating_cluster`` and ``materialize_minor`` equals,
in ``==`` and ``hash``, its rebuild through the checked constructors.

The classes are seeded and random at k = 1, 2 and 3.  At k = 1 every
image is one entry read at one rank, and every box of ``cl_inv`` is
over a one-tuple space, where the canonical default is re-derived.
"""

import random

import pytest

from galois_kit import (
    BoxedGenerator,
    Cluster,
    GaloisConfig,
    GeneralizedConstraint,
    MinorScheme,
    NotSeparableError,
    Operation,
    OperationClass,
    RepetitionFunction,
    cl_inv,
    gc_inv,
    linear_class_fixture,
    materialize_minor,
    separating_cluster,
    separating_constraint,
)


def _checked_rf(phi):
    return RepetitionFunction(phi.arity, phi.domain_size, phi.default, phi.exceptions)


def _checked_constraint(c):
    return GeneralizedConstraint(_checked_rf(c.antecedent), c.consequent, c.codomain_size)


def _checked_cluster(c):
    gens = frozenset(BoxedGenerator(_checked_rf(g.box), g.cap) for g in c.generators)
    return Cluster(c.arity, c.domain_size, gens)


def _assert_rebuilt_alike(got, rebuild):
    want = rebuild(got)
    assert type(got) is type(want)
    assert got == want and want == got
    assert hash(got) == hash(want)


def _random_op(rng, k, k_out, n):
    return Operation(k, k_out, n, tuple(rng.randrange(k_out) for _ in range(k ** n)))


def _random_class(rng, k, k_out, max_arity):
    return OperationClass(k, k_out, members=[
        _random_op(rng, k, k_out, rng.randint(1, max_arity)) for _ in range(rng.randint(0, 3))])


# (k, k_out, member arity cap, n_max, m_max): gc_inv's classes
CONSTRAINT_SHAPES = [(1, 1, 3, 3, 1), (1, 2, 2, 2, 1), (2, 2, 2, 2, 4), (2, 3, 2, 2, 2),
                     (3, 3, 2, 2, 2)]


@pytest.mark.parametrize("shape", CONSTRAINT_SHAPES, ids=str)
def test_gc_inv_and_separating_constraint_equal_their_checked_rebuilds(shape):
    k, k_out, max_arity, n_max, m_max = shape
    rng = random.Random(2027 + k + 10 * k_out)
    separated = 0
    for _ in range(12):
        cls_ = _random_class(rng, k, k_out, max_arity)
        cfg = GaloisConfig(k, n_max=n_max, m_max=m_max, breadth=n_max)
        constraints = gc_inv(cls_, cfg)
        assert constraints
        for c in constraints:
            _assert_rebuilt_alike(c, _checked_constraint)
        if len(cls_):
            g = _random_op(rng, k, k_out, rng.randint(1, max_arity))
            try:
                c = separating_constraint(cls_, g)
            except NotSeparableError:
                continue
            _assert_rebuilt_alike(c, _checked_constraint)
            separated += 1
    assert separated or k_out == 1


# (k, member arity cap, n_max): cl_inv's classes; at k = 3 the members are
# unary, so the composition closure stays small
CLUSTER_SHAPES = [(1, 2, 3), (2, 2, 2), (3, 1, 2)]


@pytest.mark.parametrize("shape", CLUSTER_SHAPES, ids=str)
def test_cl_inv_and_separating_cluster_equal_their_checked_rebuilds(shape):
    k, max_arity, n_max = shape
    rng = random.Random(2127 + k)
    separated = 0
    for _ in range(8):
        cls_ = _random_class(rng, k, k, max_arity)
        cfg = GaloisConfig(k, n_max=n_max, m_max=1, breadth=n_max)
        clusters = cl_inv(cls_, cfg)
        assert len(clusters) == n_max
        for c in clusters:
            _assert_rebuilt_alike(c, _checked_cluster)
        g = _random_op(rng, k, k, rng.randint(1, n_max))
        try:
            c = separating_cluster(cls_, g, cfg)
        except NotSeparableError:
            continue
        _assert_rebuilt_alike(c, _checked_cluster)
        separated += 1
    assert separated or k == 1


def test_gf3_linear_clusters_equal_their_checked_rebuilds():
    cls_ = linear_class_fixture(3, 2, 2)
    for c in cl_inv(cls_, GaloisConfig(3, n_max=2, m_max=1, breadth=2)):
        _assert_rebuilt_alike(c, _checked_cluster)


def test_one_letter_boxes_take_the_canonical_default():
    """Over k = 1 each image is the one tuple (0,) * k^n, so each maximal
    member holds it with some count c >= 1: the box is c on the whole
    space, stored as default c with no exceptions."""
    cls_ = OperationClass(1, members=[Operation(1, 1, 2, (0,))])
    for c in cl_inv(cls_, GaloisConfig(1, n_max=3, m_max=1, breadth=3)):
        boxes = [g.box for g in c.generators]
        assert boxes and all(b.default >= 1 and b.exceptions == {} for b in boxes)


def test_materialized_minors_equal_their_checked_rebuilds():
    rng = random.Random(2227)
    for _ in range(10):
        k = rng.randint(1, 3)
        cls_ = _random_class(rng, k, k, 1)
        cluster = cl_inv(cls_, GaloisConfig(k, n_max=1, m_max=1, breadth=1))[0]
        got = materialize_minor([cluster], MinorScheme.identity(cluster.arity), 3)
        _assert_rebuilt_alike(got, _checked_cluster)
