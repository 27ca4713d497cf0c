"""The command line is total: any workspace text and any flags give an exit
code in {0, 1, 2, 3} and output without a traceback.

Workspaces mix well-formed entity lines, near misses (wrong table lengths,
out-of-range values, unknown names, zero or huge sizes), operations and
constraints from one alphabet into another, and arbitrary text.
Budgets are 0, 1, 10 or the default, so oversized requests must be refused,
not hang.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from galois_kit.cli import main

FNS, CLASS, CONSTRAINT, CLUSTER = ("f", "g"), "c", "d", "cl"
small = st.sampled_from([1, 1, 2, 2, 3, 3, 4, 5, 0, -1])
HUGE = 100_000_000


def _sized(k, m):
    """Entity lines with a zero or a huge size, by damage and by the entity
    they stand in for; each huge one is refused (exit 2 or 3) before its
    tuple space is built."""
    return {
        "zero": {
            "f": ["op f k=0 arity=1 : 0"],
            "constraint": [f"constraint {CONSTRAINT} : rf=[arity=0 k={k} default=0 {{ }}] "
                           "consequent={ }"],
            "cluster": [f"cluster {CLUSTER} arity=0 k={k} {{ }}",
                        f"cluster {CLUSTER} arity={m} k=0 {{ }}"],
            "matrix": ["mat mm rows=0 cols=1 : col()"],
        },
        "huge": {
            "f": [f"op f k=3 arity={HUGE} : 0 1 2"],
            "constraint": [
                f"constraint {CONSTRAINT} : rf=[arity={HUGE} k=2 default=1 {{ }}] consequent={{ }}",
                f"constraint {CONSTRAINT} : rf=[arity=1 k=1400 default=0 {{ }}] k_out=2000 "
                "consequent={ }"],
            "cluster": [
                f"cluster {CLUSTER} arity={HUGE} k=2 {{ gen cap=2 rf=[default=1 {{ }}] }}",
                f"cluster {CLUSTER} arity={HUGE} k=3 {{ gen cap=2 rf=[default=inf {{ }}] }}",
                f"cluster {CLUSTER} arity=1 k=1400 {{ }}"],
        },
    }


def _tuple(k, m):
    return st.lists(st.integers(0, k - 1), min_size=m, max_size=m).map(
        lambda t: " ".join(map(str, t)))


@st.composite
def _rf_body(draw, k, m, shape=True):
    entries = draw(st.lists(
        st.tuples(_tuple(k, m), st.sampled_from(["0", "1", "2", "inf"])), max_size=3))
    head = f"arity={m} k={k} " if shape else ""
    default = draw(st.sampled_from(["0", "0", "1", "inf"]))
    inner = " ; ".join(f"{t} -> {v}" for t, v in entries)
    return f"{head}default={default} {{ {inner} }}"


@st.composite
def _op(draw, name, k, damaged=False, k_out=None):
    """An op line over k, into k_out when it is given (written k=k,k_out)."""
    n = draw(st.integers(1, 2))
    size = k ** n + (draw(st.sampled_from([-1, 1])) if damaged else 0)
    values = draw(st.lists(st.integers(0, (k_out or k) - 1), min_size=size, max_size=size))
    sizes = f"{k},{k_out}" if k_out else f"{k}"
    return f"op {name} k={sizes} arity={n} : " + " ".join(map(str, values))


@st.composite
def workspaces(draw):
    """Well-formed entities over one alphabet, with at most one kind of damage:
    a wrong header, a wrong table length, a stray line of arbitrary text,
    one entity over another alphabet, one entity with a zero or a huge
    size in place of its well-formed line, or mixed alphabets: the ops and
    the class from k into another size, written k=k,k_out, and the
    constraint into it, written k_out=k_out."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    damage = draw(st.sampled_from(
        ["none"] * 4 + ["header", "table", "text", "alphabet", "zero", "huge", "mixed"]))
    k_out = k % 3 + 1 if damage == "mixed" else None
    present = st.sampled_from([True, True, True, False])
    sized = {}  # entity -> the line standing in for its well-formed one
    if damage in ("zero", "huge"):
        options = _sized(k, m)[damage]
        entity = draw(st.sampled_from(sorted(options)))
        sized[entity] = draw(st.sampled_from(options[entity]))

    def alphabet():
        return k % 3 + 1 if damage == "alphabet" and draw(st.booleans()) else k

    lines = ["galois-kit v2" if damage == "header" else "galois-kit v1"]
    if "matrix" in sized:
        lines.append(sized["matrix"])
    for name in FNS:
        if name in sized:
            lines.append(sized[name])
        elif draw(present):
            lines.append(draw(_op(name, alphabet(), damage == "table" and draw(st.booleans()),
                                  k_out)))
    if draw(present):
        ka = alphabet()
        ops = draw(st.lists(_op("x", ka, k_out=k_out), min_size=1, max_size=3))
        header = f"class {CLASS} k={ka},{k_out} {{" if k_out else f"class {CLASS} {{"
        lines += [header, *("  " + line for line in ops), "}"]
    if "constraint" in sized:
        lines.append(sized["constraint"])
    elif draw(present):
        ka = alphabet()
        tuples = draw(st.lists(_tuple(k_out or ka, m), max_size=4))
        consequent = ", ".join(f"({t})" for t in tuples)
        into = f"k_out={k_out} " if k_out else ""
        lines.append(f"constraint {CONSTRAINT} : rf=[{draw(_rf_body(ka, m))}] "
                     f"{into}consequent={{ {consequent} }}")
    if "cluster" in sized:
        lines.append(sized["cluster"])
    elif draw(present):
        ka = alphabet()
        gens = " ; ".join(
            f"gen cap={cap} rf=[{body}]" for cap, body in draw(st.lists(
                st.tuples(st.sampled_from(["0", "1", "3", "inf"]),
                          _rf_body(ka, m, shape=False)), max_size=2)))
        lines.append(f"cluster {CLUSTER} arity={m} k={ka} {{ {gens} }}")
    if damage == "text":
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
        lines.insert(draw(st.integers(0, len(lines))), draw(text))
    return "\n".join(lines) + "\n"


@st.composite
def arguments(draw):
    command = draw(st.sampled_from(["satisfies", "close", "inv", "pol", "separate"]))
    fn = st.sampled_from(FNS * 2 + ("nope",))
    argv = [command, "-w", "WORKSPACE"]

    def flag(option, values):
        if draw(st.booleans()):
            argv.extend([option, str(draw(values))])

    if command == "satisfies":
        argv += ["--fn", draw(fn)]
        kinds = draw(st.sampled_from([["constraint"], ["cluster"], [], ["constraint", "cluster"]]))
        for kind in kinds:
            argv += [f"--{kind}", CONSTRAINT if kind == "constraint" else CLUSTER]
    elif command == "close":
        ops = st.sampled_from(["zeta,tau,nabla", "zeta,tau,nabla,star", "delta"])
        argv += ["--class", CLASS, "--ops", draw(ops), "--cap", str(draw(small))]
    else:
        kind = draw(st.sampled_from(["constraint", "cluster"]))
        argv += ["--kind", kind]
        if command == "pol":
            names = st.sampled_from([CONSTRAINT if kind == "constraint" else CLUSTER, "f"])
            argv += ["--names", ",".join(draw(st.lists(names, max_size=2)))]
        else:
            argv += ["--class", CLASS]
        if command == "separate":
            argv += ["--fn", draw(fn)]
            flag("--cap", small)
        else:
            argv += ["--cap", str(draw(small))]
        flag("--m-max", small)
    if command != "close":
        flag("--breadth", small)
    flag("--budget", st.sampled_from([0, 1, 10]))
    if draw(st.booleans()):
        argv = ["--format", "json-lines", *argv]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=workspaces(), argv=arguments())
def test_any_input_exits_with_a_known_code_and_no_traceback(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.gk")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([path if a == "WORKSPACE" else a for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
