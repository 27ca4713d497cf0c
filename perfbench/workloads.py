"""Seeded input generators for the three benchmark workloads.

Every generator takes the imported ``galois_kit`` package and a
``random.Random``; the same seed gives the same inputs.  A workload is a
list of ``Query`` objects: ``run`` is the timed call into the library,
``check`` runs afterwards, outside every timed interval, and returns
``None`` or a message describing the wrong answer.
"""

import io
import os
import random
from contextlib import redirect_stdout
from itertools import product

import oracles

INF = float("inf")

WORKLOADS = ("roundtrip", "checks", "session")

# Each query reads library functions through the package at call time
# (``gk.c_pol(...)``), so the wrappers installed by the tracer see them.


class Query:
    __slots__ = ("kind", "run", "check", "then", "inputs")

    def __init__(self, kind, run, check, then=None, inputs=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.then = then  # untimed follow-up on the result (session chaining)
        self.inputs = inputs  # the generated entities, for the determinism test


def random_op(gk, rng, k, n):
    return gk.Operation(k, k, n, tuple(rng.randrange(k) for _ in range(k ** n)))


# --- roundtrip -------------------------------------------------------------

# Per batch: every distinct one- and two-element generating set of k=2
# operations of arity <= 2 but a seeded few (drawn without replacement,
# so the latency quantiles barely move with the seed); one n_max=3 class
# per band of generated-class size, the first class of a fixed candidate
# stream to fall in the band (c_pol cost grows with the accepted class and differs
# twofold between classes of one size, so seeded picks would swing the
# batch time from seed to seed); and the fixed GF(3) linear fixture.
ROUNDTRIP_N2_QUERIES = 180
ROUNDTRIP_N3_BANDS = ((6, 9), (10, 12), (13, 20), (21, 40), (41, 60))
ROUNDTRIP_N3_POOL_SEED = "roundtrip-n3-pool"


def _roundtrip_query(gk, cls_, n_max, k2_fpol=True):
    cfg = gk.GaloisConfig(
        cls_.domain_size, n_max=n_max, m_max=cls_.domain_size ** n_max,
        breadth=n_max,
    )
    if cls_.domain_size != 2:
        # the GF(3) fixture keeps the caps of the acceptance test
        cfg = gk.GaloisConfig(3, n_max=n_max, m_max=1, breadth=n_max)
        k2_fpol = False

    def run():
        c_class = gk.c_pol(gk.cl_inv(cls_, cfg), cfg)
        f_class = gk.f_pol(gk.gc_inv(cls_, cfg), cfg) if k2_fpol else None
        return c_class, f_class

    def check(result):
        c_class, f_class = result
        want = oracles.restrict(gk.close_composition(cls_, n_max), n_max)
        if c_class != want:
            return f"c_pol(cl_inv(C)) has {len(c_class)} members, closure has {len(want)}"
        if k2_fpol:
            want = oracles.restrict(gk.close_perm_dummy(cls_, n_max), n_max)
            if f_class != want:
                return f"f_pol(gc_inv(C)) has {len(f_class)} members, closure has {len(want)}"
        return None

    kind = "roundtrip_gf3" if cls_.domain_size == 3 else f"roundtrip_n{n_max}"
    return Query(kind, run, check, inputs=(cls_, n_max))


def roundtrip_batch(gk, rng):
    k = 2
    ops = [op for n in (1, 2) for op in gk.all_operations(k, n)]
    sets = [(f,) for f in ops] + [
        (ops[i], ops[j]) for i in range(len(ops)) for j in range(i + 1, len(ops))
    ]
    queries = [
        _roundtrip_query(gk, gk.OperationClass(k, k, s), 2)
        for s in rng.sample(sets, ROUNDTRIP_N2_QUERIES)
    ]
    pool_rng = random.Random(ROUNDTRIP_N3_POOL_SEED)
    picks = {}
    while len(picks) < len(ROUNDTRIP_N3_BANDS):
        cls_ = gk.OperationClass(k, k, [
            random_op(gk, pool_rng, k, pool_rng.randint(1, 3))
            for _ in range(pool_rng.randint(1, 2))
        ])
        size = len(gk.close_composition(cls_, 3))
        for lo, hi in ROUNDTRIP_N3_BANDS:
            if lo <= size <= hi:
                picks.setdefault((lo, hi), cls_)
    queries += [_roundtrip_query(gk, picks[band], 3) for band in ROUNDTRIP_N3_BANDS]
    queries.append(_roundtrip_query(gk, gk.linear_class_fixture(3, 2, 2), 2))
    rng.shuffle(queries)
    return queries


# --- checks ----------------------------------------------------------------

def _random_relation(rng, k, m, size):
    space = list(product(range(k), repeat=m))
    return set(rng.sample(space, min(size, len(space))))


def constraint_query(gk, rng, k, n):
    m = 3 if k == 2 else 2
    f = random_op(gk, rng, k, n)
    support = sorted(_random_relation(rng, k, m, rng.randint(6, 8)))
    exc = {t: rng.choice((1, 2, INF)) for t in support}
    phi = gk.RepetitionFunction(m, k, 0, exc)
    images = oracles.constraint_images(f, phi)
    if images and rng.random() < 0.5:
        images.discard(rng.choice(sorted(images)))
    c = gk.GeneralizedConstraint(phi, frozenset(images), k)

    def run():
        return gk.satisfies_constraint(f, c)

    return Query("satisfies_constraint", run,
                 lambda verdict: oracles.check_constraint_verdict(f, c, verdict),
                 inputs=(f, c))


def cluster_query(gk, rng, k, n):
    m = rng.randint(1, 2)
    f = random_op(gk, rng, k, n)
    breadth = n + 1 if k == 2 else n
    seed_rel = _random_relation(rng, k, m, rng.randint(1, 3))
    rel = oracles.close_relation(f, seed_rel)
    derived = sorted(rel - seed_rel)
    if derived and rng.random() < 0.5:
        rel.discard(rng.choice(derived))
    gens = {gk.BoxedGenerator(
        gk.RepetitionFunction(m, k, 0, {t: INF for t in rel}),
        rng.choice((breadth, INF)),
    )}
    if rng.random() < 0.5:
        extra = {t: 1 for t in _random_relation(rng, k, m, 2)}
        gens.add(gk.BoxedGenerator(gk.RepetitionFunction(m, k, 0, extra), 2))
    cluster = gk.Cluster(m, k, frozenset(gens))
    return _cluster_query(gk, f, cluster, breadth)


def order_query(gk, rng, k, n):
    chain = list(range(k))
    rng.shuffle(chain)
    leq = {(a, b) for i, a in enumerate(chain) for b in chain[i:]}
    f = random_op(gk, rng, k, n)
    return _cluster_query(gk, f, gk.order_cluster(leq, k), n)


def _cluster_query(gk, f, cluster, breadth):
    def run():
        return gk.satisfies_cluster(f, cluster, breadth)

    return Query("satisfies_cluster", run,
                 lambda verdict: oracles.check_cluster_verdict(f, cluster, breadth, verdict),
                 inputs=(f, cluster, breadth))


def minor_query(gk, rng, k, target):
    names = ("u",)[: rng.randint(0, 1)]
    maps = []
    for _ in range(rng.randint(1, 2)):
        maps.append(tuple(
            rng.choice(names) if names and rng.random() < 0.3 else rng.randrange(target)
            for _ in range(rng.randint(2, 3))
        ))
    scheme = gk.MinorScheme(target, names, tuple(maps))
    family = []
    for h in maps:
        exc = {t: rng.choice((1, 2, INF))
               for t in _random_relation(rng, k, len(h), rng.randint(2, 5))}
        consequent = {t for t in product(range(k), repeat=len(h)) if rng.random() < 0.6}
        family.append(gk.GeneralizedConstraint(
            gk.RepetitionFunction(len(h), k, 0, exc), frozenset(consequent), k))
    phi = oracles.candidate_antecedent(scheme, [c.antecedent for c in family], k)
    tight = oracles.tight_minor(scheme, [c.consequent for c in family], k)
    if tight and rng.random() < 0.25:
        tight.discard(rng.choice(sorted(tight)))
    if rng.random() < 0.25:
        values = {t: phi.value(t) for t in product(range(k), repeat=target)}
        values[tuple(rng.randrange(k) for _ in range(target))] = INF
        phi = gk.RepetitionFunction(target, k, 0, values)
    c = gk.GeneralizedConstraint(phi, frozenset(tight), k)
    col_cap = 3 if k == 2 else 2

    def run():
        return gk.is_conjunctive_minor_constraint(c, family, scheme, col_cap)

    return Query("is_conjunctive_minor_constraint", run,
                 lambda verdict: oracles.check_minor_verdict(c, family, scheme, col_cap, verdict),
                 inputs=(c, family, scheme, col_cap))


# One round of the checks stream as (generator, k, operation arity or scheme
# target).  Every query builds fresh entities.  The shapes are fixed per
# round because cost grows steeply with them, so drawing them at random
# would make the batch time swing from batch to batch.
CHECKS_ROUND = (
    (constraint_query, 2, 2), (constraint_query, 2, 3),
    (constraint_query, 3, 2), (constraint_query, 3, 3),
    (cluster_query, 2, 1), (cluster_query, 2, 2), (cluster_query, 2, 3),
    (cluster_query, 3, 1), (cluster_query, 3, 2), (order_query, 2, 2),
    (minor_query, 2, 2), (minor_query, 2, 3), (minor_query, 3, 2),
)
CHECKS_ROUNDS_PER_BATCH = 28


def checks_batch(gk, rng):
    queries = [
        make(gk, rng, k, n)
        for _ in range(CHECKS_ROUNDS_PER_BATCH)
        for make, k, n in CHECKS_ROUND
    ]
    rng.shuffle(queries)
    return queries


# --- session ---------------------------------------------------------------

# Two classes per band of closure size (at arity cap 2), and for every
# other class a separation target inside its closure, so that the costly
# paths (large classes, separators that must be built and verified) get
# the same share in every seed's session.
SESSION_BANDS = ((3, 4), (5, 5), (6, 6), (7, 8), (9, 10))
SESSION_CLASSES = 2 * len(SESSION_BANDS)
SESSION_CFG = dict(n_max=2, m_max=2, breadth=2)
SESSION_CAPS = ["--cap", str(SESSION_CFG["n_max"]), "--m-max", str(SESSION_CFG["m_max"]),
                "--breadth", str(SESSION_CFG["breadth"])]
SATISFIES_BREADTH = 3


class Session:
    """Seeded workspace files and the CLI calls a user makes on them."""

    def __init__(self, gk, rng, workdir):
        self.gk = gk
        self.workdir = workdir
        self.ws_path = os.path.join(workdir, "ws.gk")
        k = 2
        lines = [gk.HEADER]
        self.classes, self.ops, self.constraints, self.clusters = {}, {}, {}, {}
        for i, cls_ in enumerate(self._banded_classes(rng)):
            closed = sorted(f.table for f in gk.close_composition(cls_, 2) if f.arity == 2)
            if i % 2:
                g = gk.Operation(k, k, 2, rng.choice(closed))
            else:
                g = random_op(gk, rng, k, 2)
                while g.table in closed:
                    g = random_op(gk, rng, k, 2)
            phi = gk.RepetitionFunction(
                2, k, 0, {t: rng.choice((1, 2, INF))
                          for t in _random_relation(rng, k, 2, rng.randint(2, 4))})
            rel = _random_relation(rng, k, 2, rng.randint(1, 4))
            box = gk.RepetitionFunction(2, k, 0, {t: INF for t in rel})
            self.classes[f"C{i}"] = cls_
            self.ops[f"g{i}"] = g
            self.constraints[f"R{i}"] = gk.GeneralizedConstraint(phi, frozenset(rel), k)
            self.clusters[f"K{i}"] = gk.Cluster(
                2, k, frozenset({gk.BoxedGenerator(box, rng.choice((3, INF)))}))
            lines += [
                gk.format_class(f"C{i}", cls_),
                gk.format_operation(f"g{i}", g),
                gk.format_constraint(f"R{i}", self.constraints[f"R{i}"]),
                gk.format_cluster(f"K{i}", self.clusters[f"K{i}"]),
            ]
        with open(self.ws_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def _banded_classes(self, rng):
        gk, k = self.gk, 2
        picked = {band: [] for band in SESSION_BANDS}
        while any(len(classes) < 2 for classes in picked.values()):
            cls_ = gk.OperationClass(k, k, [
                random_op(gk, rng, k, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))
            ])
            size = len(gk.close_composition(cls_, 2))
            for lo, hi in SESSION_BANDS:
                if lo <= size <= hi and len(picked[(lo, hi)]) < 2:
                    picked[(lo, hi)].append(cls_)
        return [cls_ for band in SESSION_BANDS for cls_ in picked[band]]

    def cli(self, kind, argv, check, then=None):
        gk = self.gk

        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = gk.cli.main(argv() if callable(argv) else argv)
            return code, out.getvalue()

        return Query(kind, run, check, then, inputs=(argv,))

    def batch(self, rng):
        """One session: per class a chain close, inv, pol, inv, pol,
        separate, separate (kept in order, since pol reads the inv
        output), plus satisfies calls; the seed interleaves them."""
        groups = [self._class_chain(name) for name in self.classes]
        for i, fn_name in enumerate(self.ops):
            j = (i + 1) % SESSION_CLASSES
            for kind, entity in (("constraint", f"R{i}"), ("constraint", f"R{j}"),
                                 ("cluster", f"K{i}"), ("cluster", f"K{j}")):
                groups.append([self._satisfies(fn_name, kind, entity)])
        rng.shuffle(groups)
        return [q for group in groups for q in group]

    def _class_chain(self, name):
        gk = self.gk
        cls_ = self.classes[name]
        cfg = gk.GaloisConfig(2, **SESSION_CFG)
        ws = self.ws_path

        def check_close(result):
            want = gk.close_composition(cls_, 2)
            return oracles.check_cli_entities(gk, result, 0, "class", [f"{name}.closed"], [want])

        chain = [self.cli(
            "cli.close",
            ["close", "-w", ws, "--class", name, "--ops", "zeta,tau,nabla,star", "--cap", "2"],
            check_close)]
        for kind, inv_fn, pol_fn in (("constraint", gk.gc_inv, gk.f_pol),
                                     ("cluster", gk.cl_inv, gk.c_pol)):
            chain += self._inv_then_pol(name, cls_, cfg, kind, inv_fn, pol_fn)
        g_name = f"g{name[1:]}"
        for kind in ("constraint", "cluster"):
            chain.append(self._separate(name, cls_, g_name, kind, cfg))
        return chain

    def _inv_then_pol(self, name, cls_, cfg, kind, inv_fn, pol_fn):
        gk = self.gk
        path = os.path.join(self.workdir, f"{name}.{kind}.gk")
        names = []

        def check_inv(result):
            want = inv_fn(cls_, cfg)
            return oracles.check_cli_entities(
                gk, result, 0, kind, [f"{name}.inv{i}" for i in range(len(want))], want)

        def save(result):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result[1])
            names[:] = [line.split()[1] for line in result[1].splitlines()
                        if line.startswith(kind + " ")]

        def check_pol(result):
            ws = gk.parse_workspace_file(path)
            want = pol_fn([ws.get(kind, n) for n in names], cfg)
            return oracles.check_cli_entities(gk, result, 0, "class", ["pol"], [want])

        inv = self.cli(f"cli.inv_{kind}",
                       ["inv", "-w", self.ws_path, "--class", name, "--kind", kind]
                       + SESSION_CAPS, check_inv, save)
        pol = self.cli(f"cli.pol_{kind}",
                       lambda: ["pol", "-w", path, "--kind", kind, "--names", ",".join(names)]
                       + SESSION_CAPS, check_pol)
        return [inv, pol]

    def _separate(self, name, cls_, g_name, kind, cfg):
        gk = self.gk
        g = self.ops[g_name]

        def check(result):
            if kind == "constraint":
                inside = g in gk.close_perm_dummy(cls_, max(g.arity, cls_.max_arity))
            else:
                inside = g in gk.close_composition(cls_, max(g.arity, cls_.max_arity, cfg.n_max))
            if inside:
                return oracles.check_exit(result, 1)
            if kind == "constraint":
                want = gk.separating_constraint(cls_, g)
            else:
                want = gk.separating_cluster(cls_, g, cfg)
            return oracles.check_cli_entities(gk, result, 0, kind, ["separator"], [want],
                                              {"separated": "yes"})

        return self.cli(
            f"cli.separate_{kind}",
            ["separate", "-w", self.ws_path, "--class", name, "--fn", g_name,
             "--kind", kind] + SESSION_CAPS, check)

    def _satisfies(self, fn_name, kind, entity_name):
        gk = self.gk
        f = self.ops[fn_name]

        def check(result):
            if kind == "constraint":
                verdict = gk.satisfies_constraint(f, self.constraints[entity_name])
            else:
                verdict = gk.satisfies_cluster(f, self.clusters[entity_name], SATISFIES_BREADTH)
            return oracles.check_cli_verdict(gk, result, verdict, kind)

        argv = ["satisfies", "-w", self.ws_path, "--fn", fn_name, f"--{kind}", entity_name]
        if kind == "cluster":
            argv += ["--breadth", str(SATISFIES_BREADTH)]
        return self.cli(f"cli.satisfies_{kind}", argv, check)


def make_workload(name, gk, seed, workdir):
    """Return ``next_batch(index)`` for the named workload.

    ``roundtrip`` and ``session`` answer the same batch on every pass;
    ``checks`` draws a fresh batch per pass, so no entity is reused.
    """
    if name == "roundtrip":
        batch = roundtrip_batch(gk, random.Random(seed))
        return lambda index: batch
    if name == "checks":
        return lambda index: checks_batch(gk, random.Random(f"{seed}:{index}"))
    if name == "session":
        rng = random.Random(seed)
        session = Session(gk, rng, workdir)
        batch = session.batch(rng)
        return lambda index: batch
    raise ValueError(f"unknown workload {name!r}")
