"""Self-describing text formats and the named-entity workspace.

Every value kind has a one-line (or block) rendering that parses back
to an equal value; files start with the versioned header "galois-kit
v1" and may contain '#' comments.  Serialization is deterministic:
identical values produce identical bytes.
"""

import re

from .errors import GaloisKitError
from .extnat import format_extnat, parse_extnat
from .operations import Operation, OperationClass
from .multisets import FiniteMultiset, TupleMatrix
from .repetition import RepetitionFunction
from .constraints import GeneralizedConstraint
from .minors import MinorScheme
from .clusters import BoxedGenerator, Cluster

__all__ = [
    "HEADER",
    "Workspace",
    "format_class",
    "format_cluster",
    "format_constraint",
    "format_matrix",
    "format_multiset",
    "format_operation",
    "format_rf",
    "format_scheme",
    "parse_workspace",
    "parse_workspace_file",
]

HEADER = "galois-kit v1"

_CLASS = re.compile(r"^(\S+)\s*(?:k=([1-9]\d*),([1-9]\d*)\s*)?\{\s*$")
_MULTISET = re.compile(r"^(\S+)\s+arity=(\d+)\s*\{(.*)\}\s*$")
_COLUMN = re.compile(r"col\(([^()]*)\)")
_COLUMNS = re.compile(r"\s*(?:col\([^()]*\)\s*)*")
_TUPLE = re.compile(r"\(([^()]*)\)")
_TUPLES = re.compile(r"\s*(?:\([^()]*\)\s*(?:,\s*\([^()]*\)\s*)*)?")
_CONSTRAINT = re.compile(
    r"^(\S+)\s*:\s*rf=(?:@(\S+)|\[(.*)\])\s*(?:k_out=(\d+)\s*)?consequent=\{(.*)\}\s*$",
    re.DOTALL)
_SCHEME = re.compile(r"^(\S+)\s+target=(\d+)\s+vars=\[([^\]]*)\]\s*$")
_CLUSTER = re.compile(r"^(\S+)\s+arity=(\d+)\s+k=(\d+)\s*\{(.*)\}\s*$", re.DOTALL)
_GENERATOR = re.compile(r"^gen\s+cap=(\S+)\s+rf=(?:@(\S+)|\[(.*)\])\s*$", re.DOTALL)


class Workspace:
    """Named, validated entities parsed from one or more input files."""

    KINDS = ("operation", "class", "multiset", "matrix", "rf", "constraint",
             "scheme", "cluster")

    def __init__(self):
        self.entities = {kind: {} for kind in self.KINDS}

    def add(self, kind, name, value):
        if kind not in self.entities:
            raise GaloisKitError(f"unknown entity kind {kind!r}")
        if name in self.entities[kind]:
            raise GaloisKitError(f"duplicate {kind} name {name!r}")
        self.entities[kind][name] = value

    def get(self, kind, name):
        try:
            return self.entities[kind][name]
        except KeyError:
            raise GaloisKitError(f"no {kind} named {name!r}") from None

    def names(self, kind):
        return sorted(self.entities[kind])


def _parse_ints(tokens):
    try:
        return tuple(map(int, tokens))
    except ValueError as e:
        raise GaloisKitError(f"expected integers, got {tokens!r}") from e


def _kv(token, key):
    name, sep, value = token.partition("=")
    if name != key or not sep:
        raise GaloisKitError(f"expected {key}=..., got {token!r}")
    return value


# --- operations ---

def format_operation(name, op):
    k = str(op.domain_size)
    if op.codomain_size != op.domain_size:
        k += f",{op.codomain_size}"
    vals = " ".join(str(v) for v in op.table)
    return f"op {name} k={k} arity={op.arity} : {vals}"


def _parse_operation(body):
    # body: <name> k=<k>[,<k_out>] arity=<n> : v_0 v_1 ...
    head, sep, vals = body.partition(":")
    if not sep:
        raise GaloisKitError("op line needs ':' before the value table")
    tokens = head.split()
    if len(tokens) != 3:
        raise GaloisKitError(f"malformed op line head {head!r}")
    name, k, arity = tokens
    ks = _kv(k, "k").split(",")
    if len(ks) > 2:
        raise GaloisKitError(f"op k= takes one or two sizes, not {len(ks)}")
    return name, Operation(int(ks[0]), int(ks[-1]), int(_kv(arity, "arity")),
                           _parse_ints(vals.split()))


def format_class(name, cls_):
    # an empty class has no op line to carry its alphabet, so its header does
    alphabet = "" if len(cls_) else f" k={cls_.domain_size},{cls_.codomain_size}"
    lines = [f"class {name}{alphabet} {{"]
    for i, op in enumerate(cls_):
        lines.append("  " + format_operation(f"{name}.{i}", op))
    lines.append("}")
    return "\n".join(lines)


# --- multisets and matrices ---

def format_multiset(name, s):
    entries = " ; ".join(
        " ".join(str(x) for x in t) + f" * {c}"
        for t, c in sorted(s.counts.items())
    )
    return f"ms {name} arity={s.arity} {{ {entries} }}".replace("{  }", "{ }")


def _parse_multiset(body):
    m = _MULTISET.match(body)
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


def format_matrix(name, mat):
    cols = " ".join(
        "col(" + " ".join(str(x) for x in c) + ")" for c in mat.columns
    )
    return (
        f"mat {name} rows={mat.row_count} cols={mat.column_count} : {cols}"
    ).rstrip()


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
    if not _COLUMNS.fullmatch(rest):
        raise GaloisKitError(f"malformed mat columns {rest.strip()!r}")
    columns = [
        _parse_ints(m.group(1).split())
        for m in _COLUMN.finditer(rest)
    ]
    if len(columns) != cols:
        raise GaloisKitError(
            f"mat declares cols={cols} but lists {len(columns)} columns"
        )
    return name, TupleMatrix(rows, tuple(columns))


# --- repetition functions ---

def _format_rf_body(phi, with_shape=True):
    parts = []
    if with_shape:
        parts.append(f"arity={phi.arity} k={phi.domain_size}")
    parts.append(f"default={format_extnat(phi.default)}")
    entries = " ; ".join(
        " ".join(str(x) for x in t) + f" -> {format_extnat(v)}"
        for t, v in sorted(phi.exceptions.items())
    )
    parts.append("{ " + entries + " }" if entries else "{ }")
    return " ".join(parts)


def format_rf(name, phi):
    return f"rf {name} {_format_rf_body(phi)}"


def _parse_rf_body(body, arity=None, k=None):
    head, brace, rest = body.partition("{")
    inner, brace_end, tail = rest.rpartition("}")
    if not brace or not brace_end or tail.strip():
        raise GaloisKitError(f"malformed rf body {body!r}")
    default = 0
    for token in head.split():
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
    for entry in inner.split(";"):
        left, sep, val = entry.rpartition("->")
        if sep:
            exceptions[_parse_ints(left.split())] = parse_extnat(val.strip())
        elif entry.strip():
            raise GaloisKitError(f"rf entry {entry.strip()!r} needs '-> <value>'")
    return RepetitionFunction(arity, k, default, exceptions)


def _parse_rf(body):
    name, _, rest = body.partition(" ")
    if not name:
        raise GaloisKitError("rf line needs a name")
    return name, _parse_rf_body(rest)


# --- constraints ---

def format_constraint(name, c):
    tuples = ", ".join(
        "(" + " ".join(str(x) for x in t) + ")" for t in sorted(c.consequent)
    )
    body = _format_rf_body(c.antecedent)
    k_out = f" k_out={c.codomain_size}" if c.codomain_size != c.domain_size else ""
    return (
        f"constraint {name} : rf=[{body}]{k_out} consequent={{ {tuples} }}"
        .replace("{  }", "{ }")
    )


def _parse_constraint(body, workspace):
    m = _CONSTRAINT.match(body)
    if not m:
        raise GaloisKitError(f"malformed constraint line {body!r}")
    # rf=@name names an rf line, rf=[...] spells its body out
    name, rf_name, rf_body, k_out, inner = m.groups()
    phi = workspace.get("rf", rf_name) if rf_name else _parse_rf_body(rf_body)
    if not _TUPLES.fullmatch(inner):
        raise GaloisKitError(f"malformed consequent {inner.strip()!r}")
    tuples = [_parse_ints(t.split()) for t in _TUPLE.findall(inner)]
    codomain = int(k_out) if k_out else phi.domain_size
    return name, GeneralizedConstraint(phi, frozenset(tuples), codomain)


# --- schemes ---

def format_scheme(name, scheme):
    vars_ = ",".join(scheme.indeterminates)
    lines = [f"scheme {name} target={scheme.target} vars=[{vars_}]"]
    for j, h in enumerate(scheme.maps):
        entries = " ".join(str(e) for e in h)
        lines.append(f"map j={j} arity={len(h)} : {entries}")
    return "\n".join(lines)


def _parse_scheme_header(body):
    m = _SCHEME.match(body)
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


# --- clusters ---

def format_cluster(name, cluster):
    gens = " ; ".join(
        f"gen cap={format_extnat(g.cap)} rf=[{_format_rf_body(g.box, with_shape=False)}]"
        for g in cluster.sorted_generators()
    )
    return (
        f"cluster {name} arity={cluster.arity} k={cluster.domain_size}"
        f" {{ {gens} }}".replace("{  }", "{ }")
    )


def _parse_cluster(body, workspace):
    m = _CLUSTER.match(body)
    if not m:
        raise GaloisKitError(f"malformed cluster line {body!r}")
    name, arity, k, inner = m.groups()
    arity, k = int(arity), int(k)
    gens = set()
    # generator entries are split on each ';' at bracket depth 0
    entries, pieces, depth = [], [], 0
    for piece in inner.split(";"):
        pieces.append(piece)
        depth += piece.count("[") - piece.count("]")
        if not depth:
            entries.append(";".join(pieces))
            pieces = []
    entries.append(";".join(pieces))
    for text in entries:
        text = text.strip()
        if not text:
            continue
        gm = _GENERATOR.match(text)
        if not gm:
            raise GaloisKitError(f"malformed generator entry {text!r}")
        cap, rf_name, rf_body = gm.groups()
        cap = parse_extnat(cap)
        box = workspace.get("rf", rf_name) if rf_name else _parse_rf_body(rf_body, arity, k)
        gens.add(BoxedGenerator(box, cap))
    return name, Cluster(arity, k, frozenset(gens))


# --- workspace files ---

def parse_workspace(text, workspace=None):
    """Parse one file's worth of entity lines into a workspace, naming
    the line of each error (a scheme's header line for the scheme)."""
    ws = workspace if workspace is not None else Workspace()
    numbered = enumerate(text.splitlines(), 1)
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

    for i, line in numbered:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, body = line.partition(" ")
        if pending_scheme is not None and kind != "map":
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
                m = _CLASS.match(body)
                if not m:
                    raise GaloisKitError(f"malformed class line {body!r}")
                members = []
                for i, inner in numbered:
                    inner = inner.strip()
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
                else:
                    raise GaloisKitError("unterminated class block")
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


def parse_workspace_file(path, workspace=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise GaloisKitError(f"{path} is not UTF-8 text: {e.reason}") from e
    return parse_workspace(text, workspace)
