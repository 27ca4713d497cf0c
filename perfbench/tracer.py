"""Per-module tracing from outside the library.

The tracer wraps public functions of ``galois_kit`` on every module
binding the program calls through (a function imported into several
modules is wrapped in each, and so is a dict value such as the CLI's
table of closure functions).  Nothing under ``src/`` changes.

Spans are aggregated in memory per (query kind, function, parent
function, root function): calls, total time, self time (total minus the
time of child spans) and a work count taken from the call's arguments
or result.  Generators get no spans; their yields are counted under the
span that iterates them.
"""

import sys
import time

SPAN, GEN = "span", "gen"


def _length(args, result):
    return len(result)


def _violated(args, result):
    return 0 if result else 1


def _text_bytes(args, result):
    return len(args[0])


# layer -> function -> (how it is traced, work count of one call or None)
TRACED = {
    "operations": {
        "zeta": (SPAN, None), "tau": (SPAN, None), "delta": (SPAN, None),
        "nabla": (SPAN, None), "star": (SPAN, None),
        "minor_by_injection": (SPAN, None),
        "close_perm_dummy": (SPAN, _length), "close_composition": (SPAN, _length),
        "all_operations": (GEN, None),
    },
    "multisets": {
        "apply_op_rows": (SPAN, None),
        "split_enumerate": (GEN, None), "enumerate_matrices_leq": (GEN, None),
    },
    "constraints": {"satisfies_constraint": (SPAN, _violated)},
    "clusters": {
        "satisfies_cluster": (SPAN, None),
        "enumerate_cluster_members": (SPAN, _length),
        "cluster_member": (SPAN, None),
    },
    "minors": {
        "is_conjunctive_minor_constraint": (SPAN, None),
        "is_restrictive_rf_minor": (SPAN, None),
        "is_extensive_rf_minor": (SPAN, None),
        "tight_relation_minor": (SPAN, None),
    },
    "galois": {
        "gc_inv": (SPAN, _length), "cl_inv": (SPAN, _length),
        "f_pol": (SPAN, _length), "c_pol": (SPAN, _length),
        "separating_constraint": (SPAN, None), "separating_cluster": (SPAN, None),
    },
    "textio": {
        "parse_workspace": (SPAN, _text_bytes), "parse_workspace_file": (SPAN, None),
        **{f"format_{kind}": (SPAN, _length) for kind in (
            "operation", "class", "multiset", "matrix", "rf", "constraint",
            "scheme", "cluster")},
    },
    "cli": {"main": (SPAN, None)},
}

CALLS, TOTAL, SELF, UNITS = range(4)


class Tracer:
    def __init__(self):
        # (tag, name, parent, root) -> [calls, total_s, self_s, units]
        self.stats = {}
        self.tag = None
        self._stack = []  # frames [name, root, child_s]
        self._installed = []

    def _entry(self, name, parent):
        key = (self.tag, name, parent[0] if parent else None,
               parent[1] if parent else name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0, 0]
        return entry

    def span(self, name, fn, units):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, parent[1] if parent else name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[2] += elapsed
                entry = self._entry(name, parent)
                entry[CALLS] += 1
                entry[TOTAL] += elapsed
                entry[SELF] += elapsed - frame[2]
            if units is not None:
                entry[UNITS] += units(args, result)
            return result

        return traced

    def generator(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            entry = self._entry(name, stack[-1] if stack else None)
            entry[CALLS] += 1
            for item in fn(*args, **kwargs):
                entry[UNITS] += 1
                yield item

        return traced

    def install(self):
        """Wrap every traced function on every galois_kit binding."""
        modules = [m for n, m in sys.modules.items()
                   if n == "galois_kit" or n.startswith("galois_kit.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"galois_kit.{layer}"]
            for func, (how, units) in functions.items():
                original = getattr(home, func)
                name = f"{layer}.{func}"
                wrapper = (self.span(name, original, units) if how == SPAN
                           else self.generator(name, original))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, attr, original, wrapper, setattr)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._swap(value, key, original, wrapper,
                                               dict.__setitem__)

    def _swap(self, container, key, original, wrapper, setter):
        setter(container, key, wrapper)
        self._installed.append((container, key, original, setter))

    def uninstall(self):
        while self._installed:
            container, key, original, setter = self._installed.pop()
            setter(container, key, original)

    def total(self, names, field, tag=None, parents=None, skip_parents=()):
        """Sum one field over spans of the named functions."""
        return sum(
            entry[field]
            for (t, name, parent, _), entry in self.stats.items()
            if name in names
            and (tag is None or t == tag)
            and (parents is None or parent in parents)
            and parent not in skip_parents
        )

    def table(self):
        """Rows (name, parent, calls, total_s, self_s, units), by self time."""
        rows = {}
        for (_, name, parent, _), entry in self.stats.items():
            row = rows.setdefault((name, parent), [0, 0.0, 0.0, 0])
            for i in range(4):
                row[i] += entry[i]
        return sorted(((n, p, *r) for (n, p), r in rows.items()),
                      key=lambda row: -row[4])


def _names(layer, *functions):
    return {f"{layer}.{f}" for f in functions}


REWRITES = _names("operations", "zeta", "tau", "delta", "nabla", "star",
                  "minor_by_injection")
CLOSURES = _names("operations", "close_perm_dummy", "close_composition")
POLS = _names("galois", "f_pol", "c_pol")
INVS = _names("galois", "gc_inv", "cl_inv")
MINOR_PREDICATES = _names("minors", "is_conjunctive_minor_constraint",
                          "is_restrictive_rf_minor", "is_extensive_rf_minor")
PARSERS = _names("textio", "parse_workspace", "parse_workspace_file")
FORMATTERS = {f"textio.{f}" for f in TRACED["textio"] if f.startswith("format_")}
TEXTIO = PARSERS | FORMATTERS
FIXTURE_TAG = "roundtrip_gf3"

# name -> (unit, how it is computed from a tracer)
PER_LAYER = {
    "operations.rewrite_calls": ("count", lambda t: t.total(REWRITES, CALLS)),
    "operations.rewrite_s": ("s", lambda t: t.total(REWRITES, SELF)),
    "operations.closure_s": ("s", lambda t: t.total(CLOSURES, SELF)),
    "operations.closure_members": ("count", lambda t: t.total(CLOSURES, UNITS)),
    "operations.tables_enumerated": (
        "count", lambda t: t.total({"operations.all_operations"}, UNITS)),
    "multisets.apply_calls": ("count", lambda t: t.total({"multisets.apply_op_rows"}, CALLS)),
    "multisets.apply_s": ("s", lambda t: t.total({"multisets.apply_op_rows"}, SELF)),
    "multisets.splits": ("count", lambda t: t.total({"multisets.split_enumerate"}, UNITS)),
    "multisets.matrices": (
        "count", lambda t: t.total({"multisets.enumerate_matrices_leq"}, UNITS)),
    "constraints.checks": (
        "count", lambda t: t.total({"constraints.satisfies_constraint"}, CALLS)),
    "constraints.check_s": (
        "s", lambda t: t.total({"constraints.satisfies_constraint"}, SELF)),
    "constraints.violated_ratio": ("ratio", lambda t: _ratio(
        t.total({"constraints.satisfies_constraint"}, UNITS),
        t.total({"constraints.satisfies_constraint"}, CALLS))),
    "clusters.checks": ("count", lambda t: t.total({"clusters.satisfies_cluster"}, CALLS)),
    "clusters.check_s": ("s", lambda t: t.total({"clusters.satisfies_cluster"}, SELF)),
    "clusters.members": (
        "count", lambda t: t.total({"clusters.enumerate_cluster_members"}, UNITS)),
    "clusters.member_enum_s": (
        "s", lambda t: t.total({"clusters.enumerate_cluster_members"}, SELF)),
    "clusters.member_tests": ("count", lambda t: t.total({"clusters.cluster_member"}, CALLS)),
    "clusters.member_test_s": ("s", lambda t: t.total({"clusters.cluster_member"}, SELF)),
    "minors.predicate_calls": ("count", lambda t: t.total(MINOR_PREDICATES, CALLS)),
    "minors.predicate_s": ("s", lambda t: t.total(MINOR_PREDICATES, SELF)),
    "minors.tight_s": ("s", lambda t: t.total({"minors.tight_relation_minor"}, SELF)),
    "galois.inv_s": ("s", lambda t: t.total(INVS, SELF)),
    "galois.pol_s": ("s", lambda t: t.total(POLS, SELF)),
    "galois.separate_s": ("s", lambda t: t.total(
        _names("galois", "separating_constraint", "separating_cluster"), SELF)),
    "galois.candidates": ("count", lambda t: _candidates(t)),
    "galois.accepted": ("count", lambda t: t.total(POLS, UNITS)),
    "galois.accept_ratio": ("ratio", lambda t: _ratio(t.total(POLS, UNITS), _candidates(t))),
    "galois.invariants": ("count", lambda t: t.total(INVS, UNITS)),
    "textio.parse_s": ("s", lambda t: t.total(PARSERS, SELF)),
    "textio.format_s": ("s", lambda t: t.total(FORMATTERS, SELF)),
    # bytes parsed plus bytes formatted, counted once at the outermost textio call
    "textio.bytes": ("bytes", lambda t: t.total(TEXTIO, UNITS, skip_parents=TEXTIO)),
    "cli.commands": ("count", lambda t: t.total({"cli.main"}, CALLS)),
    "cli.self_s": ("s", lambda t: t.total({"cli.main"}, SELF)),
    # The GF(3) linear-fixture c_pol alone, which repeats exactly per batch.
    "gf3_c_pol.candidates": ("count", lambda t: t.total(
        {"operations.all_operations"}, UNITS, tag=FIXTURE_TAG, parents={"galois.c_pol"})),
    "gf3_c_pol.cluster_checks": ("count", lambda t: _under_c_pol(t, "clusters.satisfies_cluster")),
    "gf3_c_pol.apply_calls": ("count", lambda t: _under_c_pol(t, "multisets.apply_op_rows")),
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _candidates(t):
    return t.total({"operations.all_operations"}, UNITS, parents=POLS)


def _under_c_pol(t, name):
    return sum(
        entry[CALLS]
        for (tag, n, _, root), entry in t.stats.items()
        if tag == FIXTURE_TAG and n == name and root == "galois.c_pol"
    )
