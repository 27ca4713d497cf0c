"""Tests of the benchmark itself: seeded inputs, answer checkers, metric names.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import galois_kit as gk  # noqa: E402
import galois_kit.cli  # noqa: E402,F401  (the session workload and the tracer use it)
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _text(value):
    """The library's text rendering of a generated input, for byte comparison."""
    if isinstance(value, gk.Operation):
        return gk.format_operation("x", value)
    if isinstance(value, gk.OperationClass):
        return gk.format_class("x", value)
    if isinstance(value, gk.GeneralizedConstraint):
        return gk.format_constraint("x", value)
    if isinstance(value, gk.Cluster):
        return gk.format_cluster("x", value)
    if isinstance(value, gk.MinorScheme):
        return gk.format_scheme("x", value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text(v) for v in value) + "]"
    if callable(value):
        return _text(value())
    return repr(value)


def _fingerprint(batch):
    return [(q.kind, _text(q.inputs)) for q in batch]


def _checks_queries(make, k, n, count=40, seed=5):
    rng = random.Random(seed)
    return [make(gk, rng, k, n) for _ in range(count)]


def test_roundtrip_inputs_repeat_per_seed():
    first = _fingerprint(workloads.roundtrip_batch(gk, random.Random(3)))
    assert first == _fingerprint(workloads.roundtrip_batch(gk, random.Random(3)))
    assert first != _fingerprint(workloads.roundtrip_batch(gk, random.Random(4)))


def test_checks_inputs_repeat_per_seed():
    first = _fingerprint(workloads.checks_batch(gk, random.Random("3:0")))
    assert first == _fingerprint(workloads.checks_batch(gk, random.Random("3:0")))
    assert first != _fingerprint(workloads.checks_batch(gk, random.Random("3:1")))


def test_session_inputs_repeat_per_seed(tmp_path):
    files, prints = [], []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        next_batch = workloads.make_workload("session", gk, seed, str(workdir))
        files.append((workdir / "ws.gk").read_bytes())
        prints.append([
            (q.kind, [a.replace(str(workdir), "") for a in q.inputs[0]]
             if isinstance(q.inputs[0], list) else None)
            for q in next_batch(0)
        ])
    assert files[0] == files[1] and prints[0] == prints[1]
    assert files[0] != files[2]


def test_roundtrip_checker_flags_a_dropped_member():
    proj = gk.OperationClass(2, 2, [gk.projection(2, 1, 2)])
    query = workloads._roundtrip_query(gk, proj, 2)
    c_class, f_class = query.run()
    assert query.check((c_class, f_class)) is None
    members = list(c_class)
    short = gk.OperationClass(2, 2, members[1:])
    assert query.check((short, f_class))
    assert query.check((c_class, gk.OperationClass(2, 2, list(f_class)[1:])))


def _flip(verdict, kind):
    """A wrong verdict: the opposite outcome with a made-up witness."""
    if kind == "constraint":
        if verdict:
            return type(verdict)(False, gk.TupleMatrix(1, ((0,),)))
        return type(verdict)(True)
    if kind == "cluster":
        if verdict:
            one = gk.FiniteMultiset(1, {(0,): 1})
            return type(verdict)(False, verdict.breadth_cap,
                                 (gk.TupleMatrix(1, ((0,),)), one, one))
        return type(verdict)(True, verdict.breadth_cap)
    if verdict:
        return type(verdict)(False, verdict.col_cap, (0,) * 9)
    return type(verdict)(True, verdict.col_cap)


_KINDS = {
    workloads.constraint_query: "constraint",
    workloads.cluster_query: "cluster",
    workloads.order_query: "cluster",
    workloads.minor_query: "minor",
}


@pytest.mark.parametrize("make,k,n", workloads.CHECKS_ROUND)
def test_checks_checker_flags_flipped_verdicts(make, k, n):
    kind = _KINDS[make]
    outcomes = set()
    for query in _checks_queries(make, k, n):
        verdict = query.run()
        assert query.check(verdict) is None
        assert query.check(_flip(verdict, kind)), "flipped verdict accepted"
        outcomes.add(bool(verdict))
    assert outcomes == {True, False}, "the generator should give both verdicts"


def test_constraint_checker_flags_a_witness_that_maps_inside():
    for query in _checks_queries(workloads.constraint_query, 2, 2):
        verdict = query.run()
        if verdict:
            f, c = query.inputs
            inside = next(oracles.matrices_leq(c.antecedent, f.arity))
            fake = type(verdict)(False, gk.TupleMatrix(c.arity, inside))
            assert query.check(fake)
            return
    pytest.fail("no satisfied constraint query generated")


def test_session_checker_flags_wrong_exit_and_output(tmp_path):
    next_batch = workloads.make_workload("session", gk, 1, str(tmp_path))
    close = next(q for q in next_batch(0) if q.kind == "cli.close")
    code, text = close.run()
    assert close.check((code, text)) is None
    assert close.check((1, text))
    lines = text.splitlines()
    dropped = "\n".join(line for i, line in enumerate(lines) if i != len(lines) - 2)
    assert close.check((code, dropped + "\n"))


def test_tracer_counts_candidates_and_restores_bindings():
    proj = gk.OperationClass(2, 2, [gk.projection(1, 1, 2)])
    cfg = gk.GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    original = gk.galois.satisfies_cluster
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gk.galois.satisfies_cluster is not original
        assert gk.clusters.satisfies_cluster is gk.galois.satisfies_cluster
        result = gk.c_pol(gk.cl_inv(proj, cfg), cfg)
    finally:
        tracer.uninstall()
    assert gk.galois.satisfies_cluster is original
    assert tracing.PER_LAYER["galois.candidates"][1](tracer) == 2 ** 2 + 2 ** 4
    assert tracing.PER_LAYER["galois.accepted"][1](tracer) == len(result)


def test_metric_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = [m["name"] for m in spec["end_to_end"]] + per_layer
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert set(per_layer) == set(tracing.PER_LAYER) | {"trace_overhead_ref"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
