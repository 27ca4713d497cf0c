import json
import time

import pytest

from galois_kit.cli import _build_parser, main
from galois_kit.errors import DEFAULT_BUDGET

WORKSPACE = """\
galois-kit v1
op AND k=2 arity=2 : 0 0 0 1
op XOR k=2 arity=2 : 0 1 1 0
op NOT k=2 arity=1 : 1 0
op P21 k=2 arity=2 : 0 0 1 1
class proj2 {
  op p1 k=2 arity=1 : 0 1
  op p21 k=2 arity=2 : 0 0 1 1
  op p22 k=2 arity=2 : 0 1 0 1
}
rf eqphi arity=2 k=2 default=0 { 0 0 -> inf ; 1 1 -> inf }
constraint eq2 : rf=@eqphi consequent={ (0 0), (1 1) }
constraint ord : rf=[arity=2 k=2 default=0 { 0 0 -> 9 ; 0 1 -> 9 ; 1 1 -> 9 }] consequent={ (0 0), (0 1), (1 1) }
"""


@pytest.fixture
def ws_file(tmp_path):
    path = tmp_path / "ws.gk"
    path.write_text(WORKSPACE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


DEEP_WORKSPACE = (
    "galois-kit v1\n"
    "op f k=2 arity=1 : 0 0\n"
    "cluster c arity=1 k=2 { gen cap=inf rf=[default=0 { 0 -> inf }] }\n"
)


class TestSatisfies:
    def test_satisfied_exits_zero(self, ws_file, capsys):
        code, out = run(capsys, "satisfies", "-w", ws_file,
                        "--fn", "AND", "--constraint", "ord")
        assert code == 0
        assert "satisfied: yes" in out

    def test_violation_exits_one_with_witness(self, ws_file, capsys):
        code, out = run(capsys, "satisfies", "-w", ws_file,
                        "--fn", "XOR", "--constraint", "ord")
        assert code == 1
        assert "satisfied: no" in out
        assert "mat witness" in out

    def test_missing_name_exits_two(self, ws_file, capsys):
        code, out = run(capsys, "satisfies", "-w", ws_file,
                        "--fn", "NOPE", "--constraint", "eq2")
        assert code == 2

    def test_budget_exceeded_exits_three(self, ws_file, capsys):
        code, out = run(capsys, "satisfies", "-w", ws_file,
                        "--fn", "AND", "--constraint", "ord", "--budget", "2")
        assert code == 3
        assert "budget" in out

    def test_negative_budget_exits_two(self, ws_file, capsys):
        code = main(["satisfies", "-w", ws_file, "--fn", "AND",
                     "--constraint", "ord", "--budget", "-5"])
        assert code == 2
        assert "budget must be nonnegative, got -5" in capsys.readouterr().err

    def test_both_kinds_rejected(self, ws_file, capsys):
        code, out = run(capsys, "satisfies", "-w", ws_file, "--fn", "AND",
                        "--constraint", "eq2", "--cluster", "ord")
        assert code == 2

    def test_deep_breadth_cap_is_answered(self, tmp_path, capsys):
        path = tmp_path / "deep.gk"
        path.write_text(DEEP_WORKSPACE)
        code, out = run(capsys, "satisfies", "-w", str(path),
                        "--fn", "f", "--cluster", "c", "--breadth", "5000")
        assert code == 0
        assert "satisfied: yes" in out

    def test_deep_breadth_cap_is_answered_in_linear_time(self, tmp_path, capsys):
        # one member per cardinality, each step costing time in its support
        path = tmp_path / "deep.gk"
        path.write_text(DEEP_WORKSPACE)
        start = time.perf_counter()
        code, out = run(capsys, "satisfies", "-w", str(path),
                        "--fn", "f", "--cluster", "c", "--breadth", "40000")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "satisfied: yes" in out
        assert elapsed < 5.0, elapsed


class TestJsonLines:
    def test_fields_match_text_rendering(self, ws_file, capsys):
        _, text_out = run(capsys, "satisfies", "-w", ws_file,
                          "--fn", "AND", "--constraint", "ord")
        _, json_out = run(capsys, "--format", "json-lines", "satisfies",
                          "-w", ws_file, "--fn", "AND", "--constraint", "ord")
        records = [json.loads(line) for line in json_out.splitlines()]
        flat = {k: v for r in records for k, v in r.items()}
        assert flat["satisfied"] == "yes"
        assert "satisfied: yes" in text_out


class TestCloseInvPolSeparate:
    def test_close_emits_parseable_class(self, ws_file, capsys, tmp_path):
        code, out = run(capsys, "close", "-w", ws_file, "--class", "proj2",
                        "--ops", "zeta,tau,nabla", "--cap", "2")
        assert code == 0
        assert out.startswith("galois-kit v1")
        assert "bounded-arity closure" in out
        from galois_kit import parse_workspace

        ws = parse_workspace(out)
        assert len(ws.get("class", "proj2.closed")) == 3

    def test_close_unknown_ops_rejected(self, ws_file, capsys):
        code, _ = run(capsys, "close", "-w", ws_file, "--class", "proj2",
                      "--ops", "delta", "--cap", "2")
        assert code == 2

    def test_inv_cluster_output_parses(self, ws_file, capsys):
        code, out = run(capsys, "inv", "-w", ws_file, "--class", "proj2",
                        "--kind", "cluster", "--cap", "2", "--breadth", "4")
        assert code == 0
        from galois_kit import parse_workspace

        ws = parse_workspace(out)
        assert len(ws.names("cluster")) == 2

    def test_pol_constraint(self, ws_file, capsys):
        code, out = run(capsys, "pol", "-w", ws_file, "--kind", "constraint",
                        "--names", "ord", "--cap", "2")
        assert code == 0
        from galois_kit import parse_workspace

        ws = parse_workspace(out)
        # the monotone operations of arity <= 2
        assert len(ws.get("class", "pol")) == 9

    def test_separate_cluster(self, ws_file, capsys):
        code, out = run(capsys, "separate", "-w", ws_file, "--class", "proj2",
                        "--fn", "AND", "--kind", "cluster", "--breadth", "4")
        assert code == 0
        assert "separated: yes" in out
        assert "witness.output" in out

    def test_separate_member_exits_one(self, ws_file, capsys):
        code, out = run(capsys, "separate", "-w", ws_file, "--class", "proj2",
                        "--fn", "P21", "--kind", "constraint")
        assert code == 1
        assert "separated: no" in out


CODOMAIN_WORKSPACE = """\
galois-kit v1
class C {
  op C.0 k=2 arity=2 : 0 0 0 1
}
op w k=2,3 arity=2 : 0 0 0 1
op u k=2,3 arity=1 : 0 2
"""


class TestSeparateOverAnotherCodomain:
    @pytest.mark.parametrize("fn", ["w", "u"])
    @pytest.mark.parametrize("kind", ["constraint", "cluster"])
    def test_refused_before_any_entity(self, tmp_path, capsys, fn, kind):
        path = tmp_path / "codomain.gk"
        path.write_text(CODOMAIN_WORKSPACE)
        code, out = run(capsys, "separate", "-w", str(path), "--class", "C",
                        "--fn", fn, "--kind", kind, "--cap", "2")
        assert code == 2
        assert out == "error: operation codomain does not match the class\n"


class TestDeterminism:
    def test_byte_identical_output(self, ws_file, capsys):
        _, first = run(capsys, "inv", "-w", ws_file, "--class", "proj2",
                       "--kind", "cluster", "--cap", "2", "--breadth", "4")
        _, second = run(capsys, "inv", "-w", ws_file, "--class", "proj2",
                        "--kind", "cluster", "--cap", "2", "--breadth", "4")
        assert first == second

    def test_witness_feeds_back_as_violation(self, ws_file, capsys, tmp_path):
        _, out = run(capsys, "satisfies", "-w", ws_file,
                     "--fn", "XOR", "--constraint", "ord")
        witness_line = next(
            line for line in out.splitlines() if line.startswith("mat witness")
        )
        from galois_kit import parse_workspace, Operation

        ws = parse_workspace("galois-kit v1\n" + witness_line)
        m = ws.get("matrix", "witness")
        lxor = Operation(2, 2, 2, (0, 1, 1, 0))
        image = tuple(lxor(*m.row(i)) for i in range(m.row_count))
        assert image not in {(0, 0), (0, 1), (1, 1)}


class TestVerifyCommand:
    def test_verify_malcev_passes(self, capsys):
        code, out = run(capsys, "verify", "malcev")
        assert code == 0
        assert "passed: yes" in out

    def test_unknown_suite_exits_two(self, capsys):
        code, _ = run(capsys, "verify", "bogus")
        assert code == 2


class TestMalformedInput:
    @pytest.mark.parametrize("line", [
        "op F k=x arity=2 : 0 0 0 1",
        "rf r arity=1 k=2 default=-3 { }",
        "rf r arity=1 k=2 default=0 { 0 -> x }",
        "ms s arity=1 { 0 * y }",
    ])
    def test_bad_number_exits_two_naming_the_line(self, line, tmp_path, capsys):
        path = tmp_path / "bad.gk"
        path.write_text("galois-kit v1\n# comment\n" + line + "\n")
        code, out = run(capsys, "close", "-w", str(path), "--class", "c",
                        "--ops", "zeta,tau,nabla", "--cap", "2")
        assert code == 2
        assert out.startswith("error: line 3: ")

    @pytest.mark.parametrize("lines, lineno", [
        pytest.param(["op f k=2 arity=1 : 0 1", "op f k=2 arity=1 : 1 0"], 4,
                     id="duplicate-name"),
        pytest.param(["widget w : 1 2 3"], 3, id="unknown-kind"),
        pytest.param(["op f k=2 arity=1 0 1"], 3, id="malformed-op"),
        pytest.param(["constraint c : rf=@r"], 3, id="malformed-constraint"),
        pytest.param(["cluster c arity=1 k=2 { gen cap=1 }"], 3,
                     id="malformed-cluster"),
        pytest.param(["class c {", "  op f k=2 arity=1 : 0 1",
                      "  rf r arity=1 k=2 default=0 { }", "}"], 5,
                     id="non-op-line-in-class"),
        pytest.param(["scheme s target=1 vars=[]", "map j=1 arity=1 : 0"], 4,
                     id="map-index-out-of-order"),
        # an invalid scheme names its header line, whether the next entity
        # or the end of the file closes it
        pytest.param(["scheme s target=1 vars=[]", "map j=0 arity=1 : 5",
                      "op f k=2 arity=1 : 0 1"], 3, id="scheme-before-entity"),
        pytest.param(["scheme s target=1 vars=[u,u]", "map j=0 arity=1 : 0"], 3,
                     id="scheme-at-end"),
        pytest.param(["cluster c arity=0 k=2 { }"], 3, id="cluster-arity-0"),
        pytest.param(["cluster c arity=1 k=0 { }"], 3, id="cluster-k-0"),
        pytest.param(["mat m rows=0 cols=1 : col()"], 3, id="matrix-rows-0"),
        pytest.param(["op f k=2,2,9 arity=1 : 0 1"], 3, id="op-three-sizes"),
    ])
    def test_bad_line_exits_two_naming_the_line(self, lines, lineno, tmp_path,
                                                capsys):
        path = tmp_path / "bad.gk"
        path.write_text("galois-kit v1\n# comment\n" + "\n".join(lines) + "\n")
        code, out = run(capsys, "close", "-w", str(path), "--class", "c",
                        "--ops", "zeta,tau,nabla", "--cap", "2")
        assert code == 2
        prefix = f"error: line {lineno}: "
        assert out.startswith(prefix)
        assert not out[len(prefix):].startswith("line ")

    def test_binary_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.gk"
        path.write_bytes(b"galois-kit v1\n\xff\xfe\n")
        code, out = run(capsys, "close", "-w", str(path), "--class", "c",
                        "--ops", "zeta,tau,nabla", "--cap", "2")
        assert code == 2
        assert out.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["satisfies", "--fn", "AND", "--constraint", "ord"],
    ["close", "--class", "proj2", "--ops", "zeta,tau,nabla", "--cap", "2"],
    ["inv", "--class", "proj2", "--kind", "constraint", "--cap", "2"],
    ["pol", "--kind", "constraint", "--names", "ord", "--cap", "2"],
    ["separate", "--class", "proj2", "--fn", "AND", "--kind", "constraint"],
])
def test_negative_budget_rejected_by_every_subcommand(argv, ws_file, capsys):
    code = main([*argv, "-w", ws_file, "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget must be nonnegative" in captured.err


def test_inv_constraint_over_budget_exits_three(ws_file, capsys):
    # 2 + 1 matrices of width 1 and 4 + 6 of width 2 exceed a budget of 10
    code, out = run(capsys, "inv", "-w", ws_file, "--class", "proj2",
                    "--kind", "constraint", "--cap", "2", "--budget", "10")
    assert code == 3
    assert "error: refusing invariant matrices: 13 steps exceed budget 10" in out


BUDGET_WORKSPACE = WORKSPACE + """\
constraint lo : rf=[arity=2 k=2 default=0 { 0 0 -> 5 ; 0 1 -> 7 }] consequent={ (0 0), (0 1), (1 0), (1 1) }
cluster pair arity=1 k=2 { gen cap=inf rf=[default=0 { 0 -> inf ; 1 -> inf }] }
"""


# inv --kind constraint is test_inv_constraint_over_budget_exits_three above
@pytest.mark.parametrize("argv, budget, phase, done", [
    # the refusal comes at the step past the budget, not after the 4 matrices
    pytest.param(["satisfies", "--fn", "AND", "--constraint", "lo"], 2,
                 "constraint matrices", 3, id="satisfies-constraint"),
    # ord's antecedent is 9 on three of the four pairs, so its default is 9
    pytest.param(["satisfies", "--fn", "AND", "--constraint", "ord"], 2,
                 "support tuples", 4, id="satisfies-positive-default"),
    # 1 + 2 + 3 + 4 members of cardinality <= 3 over two tuples
    pytest.param(["satisfies", "--fn", "NOT", "--cluster", "pair", "--breadth", "3"], 5,
                 "cluster members", 6, id="satisfies-cluster-members"),
    # NOT satisfies pair: its 10 members have 12 splits, refused at the 11th
    pytest.param(["satisfies", "--fn", "NOT", "--cluster", "pair", "--breadth", "3"], 10,
                 "cluster splits", 11, id="satisfies-cluster-splits"),
    pytest.param(["pol", "--kind", "constraint", "--names", "ord", "--cap", "2"], 10,
                 "operation tables", 72, id="pol-constraint"),
    pytest.param(["pol", "--kind", "cluster", "--names", "pair", "--cap", "2"], 10,
                 "operation tables", 72, id="pol-cluster"),
    # the 72 table entries fit; a table's tests are charged together, passing 80 at 82
    pytest.param(["pol", "--kind", "constraint", "--names", "ord", "--cap", "2"], 80,
                 "sweep tests", 82, id="pol-constraint-sweep"),
    # the closure pushes the 2-entry unary and then a 4-entry binary projection
    pytest.param(["inv", "--class", "proj2", "--kind", "cluster", "--cap", "2"], 5,
                 "closure", 6, id="inv-cluster"),
    pytest.param(["close", "--class", "proj2", "--ops", "zeta,tau,nabla", "--cap", "2"], 5,
                 "closure", 6, id="close-perm-dummy"),
    pytest.param(["close", "--class", "proj2", "--ops", "zeta,tau,nabla,star",
                  "--cap", "2"], 5, "closure", 6, id="close-composition"),
    pytest.param(["separate", "--class", "proj2", "--fn", "AND", "--kind", "constraint"], 5,
                 "closure", 6, id="separate-constraint"),
    pytest.param(["separate", "--class", "proj2", "--fn", "AND", "--kind", "cluster"], 5,
                 "closure", 6, id="separate-cluster"),
])
def test_budget_refusal_names_phase_work_and_budget(argv, budget, phase, done, tmp_path,
                                                    capsys):
    path = tmp_path / "ws.gk"
    path.write_text(BUDGET_WORKSPACE)
    command = [argv[0], "-w", str(path), *argv[1:]]
    code, out = run(capsys, *command, "--budget", str(budget))
    assert code == 3
    assert out.endswith(f"error: refusing {phase}: {done} steps exceed budget {budget}\n")
    # at the default budget the same command answers
    assert run(capsys, *command)[0] in (0, 1)


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaks into the next."""

    def test_parser_is_built_once(self, ws_file, capsys):
        run(capsys, "satisfies", "-w", ws_file, "--fn", "AND", "--constraint", "ord")
        misses = _build_parser.cache_info().misses
        run(capsys, "satisfies", "-w", ws_file, "--fn", "XOR", "--constraint", "ord")
        assert _build_parser.cache_info().misses == misses

    def test_workspaces_do_not_accumulate(self, ws_file, tmp_path, capsys):
        extra = tmp_path / "extra.gk"
        extra.write_text("galois-kit v1\nop MAJ k=2 arity=1 : 0 1\n")
        args = _build_parser().parse_args(["satisfies", "-w", ws_file, "-w", str(extra),
                                           "--fn", "MAJ", "--constraint", "ord"])
        assert args.workspace == [ws_file, str(extra)]
        assert run(capsys, "satisfies", "-w", ws_file, "-w", str(extra),
                   "--fn", "MAJ", "--constraint", "ord")[0] == 0
        args = _build_parser().parse_args(["satisfies", "-w", ws_file,
                                           "--fn", "MAJ", "--constraint", "ord"])
        assert args.workspace == [ws_file]
        # a leftover extra.gk would define MAJ; loading ws_file twice would
        # fail on duplicate names
        code, out = run(capsys, "satisfies", "-w", ws_file, "--fn", "MAJ",
                        "--constraint", "ord")
        assert (code, out) == (2, "error: no operation named 'MAJ'\n")
        assert run(capsys, "satisfies", "-w", ws_file, "--fn", "AND",
                   "--constraint", "ord")[0] == 0

    def test_budget_falls_back_to_the_default(self, ws_file, capsys):
        argv = ["satisfies", "-w", ws_file, "--fn", "AND", "--constraint", "ord"]
        assert _build_parser().parse_args([*argv, "--budget", "2"]).budget == 2
        assert run(capsys, *argv, "--budget", "2")[0] == 3
        assert _build_parser().parse_args(argv).budget == DEFAULT_BUDGET
        assert run(capsys, *argv) == (0, "check: satisfies AND constraint ord\n"
                                         "satisfied: yes\n")

    def test_format_falls_back_to_text(self, ws_file, capsys):
        argv = ["satisfies", "-w", ws_file, "--fn", "XOR", "--constraint", "ord"]
        _, json_out = run(capsys, "--format", "json-lines", *argv)
        assert json_out.startswith('{"check": ')
        _, text_out = run(capsys, *argv)
        assert text_out.startswith("check: satisfies XOR constraint ord\n")
        assert "{" not in text_out

    def test_verify_budget_stays_with_verify(self, ws_file):
        parser = _build_parser()
        assert parser.parse_args(["verify", "lemma-all"]).budget == float("inf")
        for argv in (["satisfies", "--fn", "AND", "--constraint", "ord"],
                     ["close", "--class", "proj2", "--ops", "zeta,tau,nabla", "--cap", "2"],
                     ["inv", "--class", "proj2", "--kind", "cluster", "--cap", "2"],
                     ["pol", "--kind", "cluster", "--names", "ord", "--cap", "2"],
                     ["separate", "--class", "proj2", "--fn", "AND", "--kind", "cluster"]):
            assert parser.parse_args([argv[0], "-w", ws_file, *argv[1:]]).budget == DEFAULT_BUDGET

    def test_usage_error_leaves_later_calls_unchanged(self, ws_file, capsys):
        argv = ["satisfies", "-w", ws_file, "--fn", "XOR", "--constraint", "ord"]
        _build_parser.cache_clear()
        alone = main(argv), capsys.readouterr()
        assert main(["satisfies", "-w", ws_file, "--constraint", "ord"]) == 2  # no --fn
        assert "the following arguments are required: --fn" in capsys.readouterr().err
        assert main(["nope"]) == 2
        capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == alone


# Entity lines whose tuple space k^m is astronomically large refuse or reject
# in one short line instead of building k^m.
HUGE = "100000000"


@pytest.mark.parametrize("entity, argv, code, message", [
    pytest.param(f"cluster c arity={HUGE} k=2 {{ gen cap=2 rf=[default=1 {{ }}] }}",
                 ["satisfies", "--fn", "g", "--cluster", "c"], 3,
                 f"error: refusing support tuples: 2^{HUGE} steps exceed budget 2000000",
                 id="cluster-positive-default"),
    pytest.param("cluster c arity=3000 k=2 { gen cap=2 rf=[default=1 { }] }",
                 ["satisfies", "--fn", "g", "--cluster", "c"], 3,
                 "error: refusing support tuples: 2^3000 steps exceed budget 2000000",
                 id="cluster-arity-3000"),
    pytest.param(f"cluster c arity={HUGE} k=3 {{ gen cap=2 rf=[default=inf {{ }}] }}",
                 ["pol", "--kind", "cluster", "--names", "c", "--cap", "1"], 3,
                 f"error: refusing support tuples: 3^{HUGE} steps exceed budget 2000000",
                 id="pol-cluster-k3"),
    pytest.param(f"cluster c arity={HUGE} k=2 {{ gen cap=2 rf=[default=1 {{ }}] }}",
                 ["pol", "--kind", "cluster", "--names", "c", "--cap", "1"], 3,
                 f"error: refusing support tuples: 2^{HUGE} steps exceed budget 2000000",
                 id="pol-cluster"),
    pytest.param(f"constraint d : rf=[arity={HUGE} k=2 default=1 {{ }}] consequent={{ }}",
                 ["satisfies", "--fn", "g", "--constraint", "d"], 3,
                 f"error: refusing support tuples: 2^{HUGE} steps exceed budget 2000000",
                 id="constraint-positive-default"),
    pytest.param(f"op h k=3 arity={HUGE} : 0 1 2",
                 ["satisfies", "--fn", "g", "--constraint", "d"], 2,
                 f"error: line 3: table length 3 != 3^{HUGE}",
                 id="op-table-length"),
    # 1400^1400 candidate tables of 1400 entries, refused by their logarithm
    pytest.param("cluster c arity=1 k=1400 { }",
                 ["pol", "--kind", "cluster", "--names", "c", "--cap", "1"], 3,
                 "error: refusing operation tables: 1400 * 1400^1400 steps exceed budget 2000000",
                 id="pol-cluster-alphabet"),
    pytest.param("constraint d : rf=[arity=1 k=1400 default=0 { }] k_out=2000 consequent={ }",
                 ["pol", "--kind", "constraint", "--names", "d", "--cap", "1"], 3,
                 "error: refusing operation tables: 1400 * 2000^1400 steps exceed budget 2000000",
                 id="pol-constraint-codomain"),
])
def test_huge_tuple_space_answers_in_one_line(entity, argv, code, message, tmp_path,
                                              capsys):
    path = tmp_path / "ws.gk"
    path.write_text(f"galois-kit v1\nop g k=2 arity=1 : 0 1\n{entity}\n")
    assert run(capsys, argv[0], "-w", str(path), *argv[1:]) == (code, message + "\n")


def test_pol_charges_table_entries(tmp_path, capsys):
    # one table per arity into a codomain of size 1, of 2^n entries each:
    # 2 + 4 + 8 + 16 + 32 entries fit the budget, the 64 of arity 6 do not
    path = tmp_path / "ws.gk"
    path.write_text("galois-kit v1\nconstraint one : rf=[arity=1 k=2 default=0 { }] "
                    "k_out=1 consequent={ (0) }\n")
    assert run(capsys, "pol", "-w", str(path), "--kind", "constraint", "--names", "one",
               "--cap", "30", "--budget", "100") == (
        3, "error: refusing operation tables: 126 steps exceed budget 100\n")


def test_huge_alphabet_closure_refuses_before_building(tmp_path, capsys):
    # the unary projection alone would be a table of 10^8 entries
    path = tmp_path / "ws.gk"
    path.write_text("galois-kit v1\nclass c k=100000000,100000000 {\n}\n")
    start = time.perf_counter()
    code, out = run(capsys, "inv", "-w", str(path), "--class", "c", "--kind", "cluster",
                    "--cap", "2")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out.endswith("error: refusing closure: 100000000 steps exceed budget 2000000\n")


class TestStats:
    """``--stats`` prints the CLI meter's steps per phase after the command."""

    def test_pol_compiles_each_constraint_once_per_arity(self, ws_file, capsys):
        code, out = run(capsys, "pol", "-w", ws_file, "--kind", "constraint",
                        "--names", "ord,eq2", "--cap", "2", "--stats")
        assert code == 0
        stats = [line for line in out.splitlines() if line.startswith("stats.")]
        # ord: 3 one-column and 9 two-column matrices; eq2: 2 and 4
        assert "stats.constraint_matrices: 18" in stats
        assert "stats.operation_tables: 72" in stats
        assert stats == sorted(stats)
        assert out.endswith(stats[-1] + "\n")

    def test_stats_follow_a_refusal(self, ws_file, capsys):
        code, out = run(capsys, "--format", "json-lines", "pol", "-w", ws_file,
                        "--kind", "constraint", "--names", "ord", "--cap", "2",
                        "--budget", "30", "--stats")
        assert code == 3
        assert [json.loads(line) for line in out.splitlines()] == [
            {"error": "refusing operation tables: 72 steps exceed budget 30"},
            {"stats.operation_tables": "72"},
        ]

    def test_without_the_flag_no_stats(self, ws_file, capsys):
        code, out = run(capsys, "pol", "-w", ws_file, "--kind", "constraint",
                        "--names", "ord", "--cap", "2")
        assert code == 0
        assert "stats." not in out
