"""Reference parser and constructor checks for the text formats.

These are the workspace parser and the validating constructors of
``RepetitionFunction``, ``Operation`` and ``GeneralizedConstraint`` as
they were written before they were tuned for speed, kept as an
executable specification and changed only where the accepted input or
a message was changed on purpose.  ``test_textio_oracle.py`` requires
the library to accept, build and reject exactly what they do, with the
same error messages.

The constructor bodies are plain functions of the instance being
built.  The names ``RepetitionFunction``, ``Operation`` and
``GeneralizedConstraint`` are rebound below to builders that run them,
so the parse functions call the reference bodies with their text
unchanged; every other entity is built by the library.
"""

import re
from itertools import product

from galois_kit import constraints, operations, repetition
from galois_kit.clusters import BoxedGenerator, Cluster
from galois_kit.errors import GaloisKitError
from galois_kit.extnat import INF, is_extnat, parse_extnat, power_upto
from galois_kit.minors import MinorScheme
from galois_kit.multisets import FiniteMultiset, TupleMatrix
from galois_kit.operations import OperationClass
from galois_kit.textio import HEADER, Workspace


# --- constructor bodies ---

def iterable(t):
    try:
        iter(t)
    except TypeError:
        return False
    return True


def rf_init(self, arity, domain_size, default=0, exceptions=None):
    if arity < 1 or domain_size < 1:
        raise GaloisKitError("arity and domain size must be positive")
    if not is_extnat(default):
        raise GaloisKitError(f"invalid default value {default!r}")
    exceptions = dict(exceptions or {})
    for t in exceptions:
        if not iterable(t):
            raise GaloisKitError(f"exception key {t!r} is not a sequence")
        for x in t:
            if not isinstance(x, int):
                raise GaloisKitError(f"exception key {tuple(t)!r}: entry {x!r} is not an int")
    for t, v in exceptions.items():
        if len(t) != arity or any(not 0 <= x < domain_size for x in t):
            raise GaloisKitError(f"invalid exception key {t!r}")
        if not is_extnat(v):
            raise GaloisKitError(f"invalid exception value {v!r}")
    exceptions = {t: v for t, v in exceptions.items() if v != default}
    # Canonical default: the most frequent value, with a fixed tie
    # order, so pointwise-equal functions are structurally equal even
    # when the exceptions nearly cover the tuple space.  Past twice the
    # exceptions' count the default wins, so k^m is built no further.
    space = power_upto(domain_size, arity, 2 * len(exceptions) + 1)
    hist = {default: space - len(exceptions)}
    for v in exceptions.values():
        hist[v] = hist.get(v, 0) + 1
    best = max(
        hist, key=lambda v: (hist[v], v == INF, v if v != INF else -1)
    )
    if best != default:
        # only possible when exceptions cover at least half the space,
        # so the rewrite below stays proportional to their size
        exceptions = {
            t: exceptions.get(t, default)
            for t in product(range(domain_size), repeat=arity)
            if exceptions.get(t, default) != best
        }
        default = best
    self.arity = arity
    self.domain_size = domain_size
    self.default = default
    self.exceptions = exceptions
    self._hash = None


def operation_post_init(self):
    if self.arity < 1:
        raise GaloisKitError("nullary operations are not supported")
    if self.domain_size < 1 or self.codomain_size < 1:
        raise GaloisKitError("domain sizes must be positive")
    if not hasattr(type(self.table), "__len__"):
        raise GaloisKitError(f"table {self.table!r} is not a sequence")
    expected = power_upto(self.domain_size, self.arity, len(self.table) + 1)
    if len(self.table) != expected:
        raise GaloisKitError(
            f"table length {len(self.table)} != {self.domain_size}^{self.arity}"
        )
    for v in self.table:
        if not isinstance(v, int):
            raise GaloisKitError(f"table {tuple(self.table)!r}: entry {v!r} is not an int")
    if any(not (0 <= v < self.codomain_size) for v in self.table):
        raise GaloisKitError("table entry out of codomain range")
    object.__setattr__(self, "table", tuple(self.table))


def constraint_post_init(self):
    if self.codomain_size < 1:
        raise GaloisKitError(f"codomain size must be positive: an int, not {self.codomain_size!r}")
    if not iterable(self.consequent):
        raise GaloisKitError(f"consequent {self.consequent!r} is not a collection of tuples")
    items = list(self.consequent)
    for t in items:
        if not iterable(t):
            raise GaloisKitError(f"consequent tuple {t!r} is not a sequence")
    try:
        consequent = frozenset(map(tuple, items))
    except TypeError:  # an unhashable entry, refused below as not an int
        consequent = items
    for t in consequent:
        for x in t:
            if not isinstance(x, int):
                raise GaloisKitError(f"consequent tuple {tuple(t)!r}: entry {x!r} is not an int")
    object.__setattr__(self, "consequent", consequent)
    m = self.antecedent.arity
    for t in self.consequent:
        if len(t) != m:
            raise GaloisKitError(f"consequent tuple {t!r} invalid for arity {m}")
        for x in t:
            if not 0 <= x < self.codomain_size:
                raise GaloisKitError(f"consequent tuple {t!r}: entry {x} out of range "
                                     f"for codomain size {self.codomain_size}")


# --- builders running the bodies above ---

def RepetitionFunction(*args, **kwargs):
    phi = object.__new__(repetition.RepetitionFunction)
    rf_init(phi, *args, **kwargs)
    return phi


def _frozen(cls, post_init, fields, values):
    obj = object.__new__(cls)
    for field, value in zip(fields, values):
        object.__setattr__(obj, field, value)
    post_init(obj)
    return obj


def Operation(domain_size, codomain_size, arity, table):
    return _frozen(operations.Operation, operation_post_init,
                   ("domain_size", "codomain_size", "arity", "table"),
                   (domain_size, codomain_size, arity, table))


def GeneralizedConstraint(antecedent, consequent, codomain_size):
    return _frozen(constraints.GeneralizedConstraint, constraint_post_init,
                   ("antecedent", "consequent", "codomain_size"),
                   (antecedent, consequent, codomain_size))


# --- parse functions ---

def _parse_ints(tokens):
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as e:
        raise GaloisKitError(f"expected integers, got {tokens!r}") from e


def _kv(token, key):
    if not token.startswith(key + "="):
        raise GaloisKitError(f"expected {key}=..., got {token!r}")
    return token[len(key) + 1:]


def _parse_operation(body):
    # body: <name> k=<k>[,<k_out>] arity=<n> : v_0 v_1 ...
    head, sep, vals = body.partition(":")
    if not sep:
        raise GaloisKitError("op line needs ':' before the value table")
    tokens = head.split()
    if len(tokens) != 3:
        raise GaloisKitError(f"malformed op line head {head!r}")
    name = tokens[0]
    ks = _kv(tokens[1], "k").split(",")
    if len(ks) > 2:
        raise GaloisKitError(f"op k= takes one or two sizes, not {len(ks)}")
    k_in = int(ks[0])
    k_out = int(ks[1]) if len(ks) > 1 else k_in
    arity = int(_kv(tokens[2], "arity"))
    table = _parse_ints(vals.split())
    return name, Operation(k_in, k_out, arity, table)


def _parse_multiset(body):
    m = re.match(r"^(\S+)\s+arity=(\d+)\s*\{(.*)\}\s*$", body)
    if not m:
        raise GaloisKitError(f"malformed ms line {body!r}")
    name, arity, inner = m.group(1), int(m.group(2)), m.group(3)
    counts = {}
    for entry in filter(None, (e.strip() for e in inner.split(";"))):
        left, sep, count = entry.rpartition("*")
        if not sep:
            raise GaloisKitError(f"ms entry {entry!r} needs '* <count>'")
        t = _parse_ints(left.split())
        counts[t] = counts.get(t, 0) + int(count)
    return name, FiniteMultiset(arity, counts)


def _parse_matrix(body):
    head, sep, rest = body.partition(":")
    if not sep:
        raise GaloisKitError("mat line needs ':' before the columns")
    tokens = head.split()
    if len(tokens) != 3:
        raise GaloisKitError(f"malformed mat line head {head!r}")
    name = tokens[0]
    rows = int(_kv(tokens[1], "rows"))
    cols = int(_kv(tokens[2], "cols"))
    # nothing but col(...) groups and whitespace
    if any(text.strip() for text in re.split(r"col\([^()]*\)", rest)):
        raise GaloisKitError(f"malformed mat columns {rest.strip()!r}")
    columns = [
        _parse_ints(m.group(1).split())
        for m in re.finditer(r"col\(([^()]*)\)", rest)
    ]
    if len(columns) != cols:
        raise GaloisKitError(
            f"mat declares cols={cols} but lists {len(columns)} columns"
        )
    return name, TupleMatrix(rows, tuple(columns))


def _parse_rf_body(body, arity=None, k=None):
    m = re.match(r"^(.*?)\{(.*)\}\s*$", body, re.DOTALL)
    if not m:
        raise GaloisKitError(f"malformed rf body {body!r}")
    head, inner = m.group(1).split(), m.group(2)
    default = 0
    for token in head:
        key, sep, val = token.partition("=")
        if not sep:
            raise GaloisKitError(f"unexpected token {token!r} in rf head")
        if key == "arity":
            arity = int(val)
        elif key == "k":
            k = int(val)
        elif key == "default":
            default = parse_extnat(val)
        else:
            raise GaloisKitError(f"unknown rf field {key!r}")
    if arity is None or k is None:
        raise GaloisKitError("rf needs arity= and k= (here or from context)")
    exceptions = {}
    for entry in filter(None, (e.strip() for e in inner.split(";"))):
        left, sep, val = entry.rpartition("->")
        if not sep:
            raise GaloisKitError(f"rf entry {entry!r} needs '-> <value>'")
        exceptions[_parse_ints(left.split())] = parse_extnat(val.strip())
    return RepetitionFunction(arity, k, default, exceptions)


def _parse_rf(body):
    name, _, rest = body.partition(" ")
    if not name:
        raise GaloisKitError("rf line needs a name")
    return name, _parse_rf_body(rest)


def _rf_field(text, workspace, arity=None, k=None):
    """rf=@name reference or rf=[inline body]."""
    if text.startswith("@"):
        if workspace is None:
            raise GaloisKitError("rf reference used outside a workspace")
        return workspace.get("rf", text[1:])
    if text.startswith("[") and text.endswith("]"):
        return _parse_rf_body(text[1:-1], arity, k)
    raise GaloisKitError(f"rf field must be @name or [inline], got {text!r}")


def _parse_constraint(body, workspace):
    m = re.match(
        r"^(\S+)\s*:\s*rf=(@\S+|\[.*\])\s*(?:k_out=(\d+)\s*)?"
        r"consequent=\{(.*)\}\s*$",
        body,
        re.DOTALL,
    )
    if not m:
        raise GaloisKitError(f"malformed constraint line {body!r}")
    name, rf_text, k_out, inner = m.groups()
    phi = _rf_field(rf_text, workspace)
    # (...) groups, one comma between each two, and whitespace around them
    between = re.split(r"\([^()]*\)", inner)
    if (between[0].strip() or between[-1].strip()
            or any(text.strip() != "," for text in between[1:-1])):
        raise GaloisKitError(f"malformed consequent {inner.strip()!r}")
    tuples = [
        _parse_ints(t.group(1).split())
        for t in re.finditer(r"\(([^()]*)\)", inner)
    ]
    codomain = int(k_out) if k_out else phi.domain_size
    return name, GeneralizedConstraint(phi, frozenset(tuples), codomain)


def _parse_scheme_header(body):
    m = re.match(r"^(\S+)\s+target=(\d+)\s+vars=\[([^\]]*)\]\s*$", body)
    if not m:
        raise GaloisKitError(f"malformed scheme line {body!r}")
    name, target, vars_ = m.group(1), int(m.group(2)), m.group(3)
    indeterminates = tuple(filter(None, (v.strip() for v in vars_.split(","))))
    return name, target, indeterminates


def _parse_map_line(body, indeterminates):
    head, sep, entries = body.partition(":")
    if not sep:
        raise GaloisKitError("map line needs ':' before the entries")
    tokens = head.split()
    if len(tokens) != 2:
        raise GaloisKitError(f"malformed map line head {head!r}")
    j = int(_kv(tokens[0], "j"))
    arity = int(_kv(tokens[1], "arity"))
    names = set(indeterminates)
    h = tuple(
        e if e in names else int(e) for e in entries.split()
    )
    if len(h) != arity:
        raise GaloisKitError(
            f"map declares arity={arity} but lists {len(h)} entries"
        )
    return j, h


def _parse_cluster(body, workspace):
    m = re.match(
        r"^(\S+)\s+arity=(\d+)\s+k=(\d+)\s*\{(.*)\}\s*$", body, re.DOTALL
    )
    if not m:
        raise GaloisKitError(f"malformed cluster line {body!r}")
    name, arity, k, inner = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
    gens = set()
    # split generator entries on ';' outside brackets
    depth = 0
    entry = []
    entries = []
    for ch in inner:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == ";" and depth == 0:
            entries.append("".join(entry))
            entry = []
        else:
            entry.append(ch)
    entries.append("".join(entry))
    for text in filter(None, (e.strip() for e in entries)):
        gm = re.match(r"^gen\s+cap=(\S+)\s+rf=(@\S+|\[.*\])\s*$", text, re.DOTALL)
        if not gm:
            raise GaloisKitError(f"malformed generator entry {text!r}")
        cap = parse_extnat(gm.group(1))
        box = _rf_field(gm.group(2), workspace, arity=arity, k=k)
        gens.add(BoxedGenerator(box, cap))
    return name, Cluster(arity, k, frozenset(gens))


def parse_workspace(text, workspace=None):
    """Parse one file's worth of entity lines into a workspace, naming
    the line of each error (a scheme's header line for the scheme)."""
    ws = workspace if workspace is not None else Workspace()
    lines = text.splitlines()
    i = 0
    seen_header = False
    pending_scheme = None  # (header line, name, target, indeterminates, maps)

    def flush_scheme():
        nonlocal pending_scheme
        if pending_scheme is None:
            return
        lineno, name, target, indeterminates, maps = pending_scheme
        pending_scheme = None
        try:
            ws.add("scheme", name, MinorScheme(target, indeterminates, tuple(maps)))
        except GaloisKitError as e:
            raise GaloisKitError(f"line {lineno}: {e}") from e

    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        kind, _, body = line.partition(" ")
        if seen_header and kind != "map":
            flush_scheme()
        try:
            if not seen_header:
                if line != HEADER:
                    raise GaloisKitError(
                        f"missing header line {HEADER!r} (got {line!r})"
                    )
                seen_header = True
            elif kind == "map":
                if pending_scheme is None:
                    raise GaloisKitError("map line outside a scheme block")
                j, h = _parse_map_line(body, pending_scheme[3])
                if j != len(pending_scheme[4]):
                    raise GaloisKitError(f"map index j={j} out of order")
                pending_scheme[4].append(h)
            elif kind == "op":
                name, op = _parse_operation(body)
                ws.add("operation", name, op)
            elif kind == "class":
                m = re.match(r"^(\S+)\s*(?:k=([1-9]\d*),([1-9]\d*)\s*)?\{\s*$", body)
                if not m:
                    raise GaloisKitError(f"malformed class line {body!r}")
                members = []
                while True:
                    if i >= len(lines):
                        raise GaloisKitError("unterminated class block")
                    inner = lines[i].strip()
                    i += 1
                    if inner == "}":
                        break
                    if not inner or inner.startswith("#"):
                        continue
                    ikind, _, ibody = inner.partition(" ")
                    if ikind != "op":
                        raise GaloisKitError(
                            f"class blocks contain only op lines, got {inner!r}"
                        )
                    members.append(_parse_operation(ibody)[1])
                if m.group(2):
                    alphabet = int(m.group(2)), int(m.group(3))
                elif members:
                    alphabet = members[0].domain_size, members[0].codomain_size
                else:
                    raise GaloisKitError("an empty class block needs k=<k>,<k_out>")
                cls_ = OperationClass(*alphabet, members)
                ws.add("class", m.group(1), cls_)
            elif kind == "ms":
                name, s = _parse_multiset(body)
                ws.add("multiset", name, s)
            elif kind == "mat":
                name, mat = _parse_matrix(body)
                ws.add("matrix", name, mat)
            elif kind == "rf":
                name, phi = _parse_rf(body)
                ws.add("rf", name, phi)
            elif kind == "constraint":
                name, c = _parse_constraint(body, ws)
                ws.add("constraint", name, c)
            elif kind == "scheme":
                name, target, indeterminates = _parse_scheme_header(body)
                pending_scheme = (i, name, target, indeterminates, [])
            elif kind == "cluster":
                name, cluster = _parse_cluster(body, ws)
                ws.add("cluster", name, cluster)
            else:
                raise GaloisKitError(f"unknown entity kind {kind!r}")
        except (ValueError, GaloisKitError) as e:
            # ValueError: int() and parse_extnat on malformed numbers
            raise GaloisKitError(f"line {i}: {e}") from e
    flush_scheme()
    if not seen_header:
        raise GaloisKitError(f"missing header line {HEADER!r}")
    return ws
