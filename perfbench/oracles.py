"""Brute-force oracles and answer checkers for the benchmark.

These re-derive every verdict from the definitions with plain
``itertools`` enumeration over the whole tuple space.  They share no
enumeration code with the library; they only read entity fields
(tables, repetition-function values, generators, scheme maps).  A
checker returns ``None`` for a correct answer and a message otherwise.
"""

from collections import Counter
from itertools import combinations_with_replacement, product


def _rank(row, k):
    r = 0
    for x in row:
        r = r * k + x
    return r


def apply_rows(f, cols):
    """Row-wise image of the matrix with the given columns."""
    k = f.domain_size
    return tuple(
        f.table[_rank(tuple(col[i] for col in cols), k)]
        for i in range(len(cols[0]))
    )


def _space(k, m):
    return list(product(range(k), repeat=m))


def respects(phi, cols):
    """M < phi: every column occurs at most phi(column) times."""
    return all(c <= phi.value(t) for t, c in Counter(cols).items())


def matrices_leq(phi, n):
    """Every n-column matrix (as a column tuple) respecting phi."""
    support = [t for t in _space(phi.domain_size, phi.arity) if phi.value(t) > 0]
    for cols in product(support, repeat=n):
        if respects(phi, cols):
            yield cols


def restrict(cls_, n_max):
    """The members of a class of arity at most n_max, as a class."""
    return type(cls_)(cls_.domain_size, cls_.codomain_size,
                      [f for f in cls_ if f.arity <= n_max])


# --- constraints -------------------------------------------------------------

def constraint_images(f, phi):
    return {apply_rows(f, cols) for cols in matrices_leq(phi, f.arity)}


def check_constraint_verdict(f, c, verdict):
    phi = c.antecedent
    if verdict:
        for cols in matrices_leq(phi, f.arity):
            if apply_rows(f, cols) not in c.consequent:
                return f"reported satisfied, but columns {cols} map outside the consequent"
        return None
    cols = verdict.witness.columns
    if len(cols) != f.arity or not respects(phi, cols):
        return f"witness {cols} does not respect the antecedent"
    if apply_rows(f, cols) in c.consequent:
        return f"witness {cols} maps into the consequent"
    return None


# --- clusters ----------------------------------------------------------------

def close_relation(f, rel):
    """The least relation containing rel that f maps into itself."""
    rel = set(rel)
    while True:
        new = {apply_rows(f, cols) for cols in product(sorted(rel), repeat=f.arity)} - rel
        if not new:
            return rel
        rel |= new


def admitted(cluster, counts):
    size = sum(counts.values())
    return any(
        size <= g.cap and all(c <= g.box.value(t) for t, c in counts.items())
        for g in cluster.generators
    )


def _members(cluster, limit):
    space = _space(cluster.domain_size, cluster.arity)
    for size in range(limit + 1):
        for combo in combinations_with_replacement(space, size):
            counts = Counter(combo)
            if admitted(cluster, counts):
                yield counts


def _selections(counts, n):
    for cols in product(sorted(counts), repeat=n):
        picked = Counter(cols)
        if all(c <= counts[t] for t, c in picked.items()):
            yield cols, counts - picked


def check_cluster_verdict(f, cluster, breadth, verdict):
    n = f.arity
    if verdict:
        for counts in _members(cluster, breadth):
            if sum(counts.values()) < n:
                continue
            for cols, rest in _selections(counts, n):
                out = rest + Counter([apply_rows(f, cols)])
                if not admitted(cluster, out):
                    return f"reported satisfied, but split {cols} | {dict(rest)} leaves the cluster"
        return None
    m1, m2, out = verdict.witness
    cols = m1.columns
    member = Counter(cols) + Counter(m2.counts)
    if len(cols) != n or sum(member.values()) > breadth or not admitted(cluster, member):
        return f"witness split {cols} | {m2.counts} is not a split of a member"
    want = Counter(m2.counts) + Counter([apply_rows(f, cols)])
    if Counter(out.counts) != want:
        return f"witness output {out.counts} is not f applied to the split"
    if admitted(cluster, want):
        return f"witness output {out.counts} is in the cluster"
    return None


# --- minors ------------------------------------------------------------------

def _mapped(a, sigma, h):
    return tuple(a[e] if isinstance(e, int) else sigma[e] for e in h)


def _assignments(names, k):
    return [dict(zip(names, values)) for values in product(range(k), repeat=len(names))]


def candidate_antecedent(scheme, phis, k):
    """Pointwise max over Skolem maps of the min over the family values."""
    exc = {}
    for a in _space(k, scheme.target):
        best = 0
        for sigma in _assignments(scheme.indeterminates, k):
            v = min(phi.value(_mapped(a, sigma, h)) for h, phi in zip(scheme.maps, phis))
            best = max(best, v)
        exc[a] = best
    return type(phis[0])(scheme.target, k, 0, exc)


def tight_minor(scheme, relations, k):
    return {
        a for a in _space(k, scheme.target)
        if any(
            all(_mapped(a, sigma, h) in r for h, r in zip(scheme.maps, relations))
            for sigma in _assignments(scheme.indeterminates, k)
        )
    }


def _skolem_exists(cols, scheme, phis, k):
    per_column = _assignments(scheme.indeterminates, k)
    for sigmas in product(per_column, repeat=len(cols)):
        if all(
            respects(phi, [_mapped(col, s, h) for col, s in zip(cols, sigmas)])
            for h, phi in zip(scheme.maps, phis)
        ):
            return True
    return False


def check_minor_verdict(c, family, scheme, col_cap, verdict):
    k = c.domain_size
    phis = [g.antecedent for g in family]
    tight = tight_minor(scheme, [g.consequent for g in family], c.codomain_size)
    if verdict:
        for n in range(1, col_cap + 1):
            for cols in matrices_leq(c.antecedent, n):
                if not _skolem_exists(cols, scheme, phis, k):
                    return f"reported a minor, but columns {cols} have no Skolem maps"
        if not tight <= c.consequent:
            return "reported a minor, but the tight relation minor leaves the consequent"
        return None
    witness = verdict.counterexample
    if hasattr(witness, "columns"):
        cols = witness.columns
        if len(cols) > col_cap or not respects(c.antecedent, cols):
            return f"witness {cols} does not respect the antecedent"
        if _skolem_exists(cols, scheme, phis, k):
            return f"witness {cols} has Skolem maps"
        return None
    if tuple(witness) not in tight or tuple(witness) in c.consequent:
        return f"witness tuple {witness} is not in the tight minor minus the consequent"
    return None


# --- command-line session ----------------------------------------------------

def check_exit(result, code):
    got, text = result
    if got != code:
        return f"exit code {got}, expected {code}: {text.strip()[:200]}"
    return None


def _fields(text):
    """The ``key: value`` report lines of a command's output."""
    return {
        line.split(": ", 1)[0]: line.split(": ", 1)[1]
        for line in text.splitlines() if line.split(" ", 1)[0].endswith(":")
    }


def check_cli_entities(gk, result, code, kind, names, wants, fields=None):
    """The command exited with code and printed exactly the wanted entities
    (and the wanted report fields)."""
    message = check_exit(result, code)
    if message:
        return message
    got = _fields(result[1])
    for key, value in (fields or {}).items():
        if got.get(key) != value:
            return f"printed {key}: {got.get(key)}, expected {value}"
    entity_lines = [line for line in result[1].splitlines()
                    if not line.split(" ", 1)[0].endswith(":")]
    ws = gk.parse_workspace("\n".join(entity_lines))
    if ws.names(kind) != sorted(names):
        return f"printed {kind} entities {ws.names(kind)}, expected {sorted(names)}"
    for name, want in zip(names, wants):
        if ws.get(kind, name) != want:
            return f"{kind} {name} differs from the library's answer"
    return None


def check_cli_verdict(gk, result, verdict, kind):
    """Exit code and witness lines of ``satisfies`` match the library verdict."""
    message = check_exit(result, 0 if verdict else 1)
    if message or verdict:
        return message
    lines = [gk.HEADER] + [
        line for line in result[1].splitlines() if line.startswith(("mat ", "ms "))
    ]
    ws = gk.parse_workspace("\n".join(lines))
    if kind == "constraint":
        same = ws.get("matrix", "witness") == verdict.witness
    else:
        m1, m2, out = verdict.witness
        same = (
            ws.get("matrix", "witness.applied") == m1
            and ws.get("multiset", "witness.rest") == m2
            and ws.get("multiset", "witness.output") == out
        )
    return None if same else "printed witness differs from the library's witness"
