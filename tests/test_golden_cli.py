"""Byte-for-byte CLI output, pinned against recorded golden files.

Each case runs ``galois_kit.cli.main`` on the workspace of
``test_cli.py`` and compares stdout and the exit code with
``golden/<case>.out`` and ``golden/exit_codes.json``, twice in one
process: cold, with every module-level memo emptied, then warm.  Some cases read
the recorded output of an earlier case (an ``inv`` output, or the
monotone class from ``pol_ord``) as a workspace, so each case's input
stays fixed even if an earlier case changes.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from galois_kit.cli import main
from package_memos import clear_memos
from test_cli import WORKSPACE

GOLDEN = Path(__file__).with_name("golden")

CONSTRAINT_INV = ",".join(f"proj2.inv{i}" for i in range(13))

# name -> argv; "{ws}" is the workspace, "{name}" the golden output of
# another case, listed before the cases that read it
CASES = {
    "inv_constraint": [
        "inv", "-w", "{ws}", "--class", "proj2", "--kind", "constraint",
        "--cap", "2"],
    "inv_cluster": [
        "inv", "-w", "{ws}", "--class", "proj2", "--kind", "cluster",
        "--cap", "2", "--breadth", "4"],
    "pol_constraint": [
        "pol", "-w", "{inv_constraint}", "--kind", "constraint",
        "--names", CONSTRAINT_INV, "--cap", "2"],
    "pol_cluster": [
        "pol", "-w", "{inv_cluster}", "--kind", "cluster",
        "--names", "proj2.inv0,proj2.inv1", "--cap", "2", "--breadth", "4"],
    "pol_ord": [
        "pol", "-w", "{ws}", "--kind", "constraint", "--names", "ord",
        "--cap", "2"],
    "close_proj2_perm_dummy": [
        "close", "-w", "{ws}", "--class", "proj2", "--ops", "zeta,tau,nabla",
        "--cap", "3"],
    "close_proj2_composition": [
        "close", "-w", "{ws}", "--class", "proj2", "--ops",
        "zeta,tau,nabla,star", "--cap", "3"],
    "close_pol_perm_dummy": [
        "close", "-w", "{pol_ord}", "--class", "pol", "--ops",
        "zeta,tau,nabla", "--cap", "3"],
    "close_pol_composition": [
        "close", "-w", "{pol_ord}", "--class", "pol", "--ops",
        "zeta,tau,nabla,star", "--cap", "3"],
    "separate_constraint_and": [
        "separate", "-w", "{ws}", "--class", "proj2", "--fn", "AND",
        "--kind", "constraint"],
    "separate_cluster_and": [
        "separate", "-w", "{ws}", "--class", "proj2", "--fn", "AND",
        "--kind", "cluster", "--breadth", "4"],
    "separate_constraint_member": [
        "separate", "-w", "{ws}", "--class", "proj2", "--fn", "P21",
        "--kind", "constraint"],
    "separate_cluster_member": [
        "separate", "-w", "{ws}", "--class", "proj2", "--fn", "P21",
        "--kind", "cluster", "--breadth", "4"],
    "satisfies_constraint_witness": [
        "satisfies", "-w", "{ws}", "--fn", "XOR", "--constraint", "ord"],
    "satisfies_cluster_witness": [
        "satisfies", "-w", "{ws}", "-w", "{inv_cluster}", "--fn", "AND",
        "--cluster", "proj2.inv1", "--breadth", "4"],
    "satisfies_cluster_witness_json": [
        "--format", "json-lines", "satisfies", "-w", "{ws}", "-w",
        "{inv_cluster}", "--fn", "XOR", "--cluster", "proj2.inv1"],
    # --stats pins the predicate kernels' work: matrices, members, splits
    "satisfies_constraint_xor_stats": [
        "satisfies", "-w", "{ws}", "--fn", "XOR", "--constraint", "ord",
        "--stats"],
    "satisfies_constraint_and_stats": [
        "satisfies", "-w", "{ws}", "--fn", "AND", "--constraint", "ord",
        "--stats"],
    "satisfies_cluster_and_stats": [
        "satisfies", "-w", "{ws}", "-w", "{inv_cluster}", "--fn", "AND",
        "--cluster", "proj2.inv1", "--breadth", "4", "--stats"],
    "satisfies_cluster_p21_stats": [
        "satisfies", "-w", "{ws}", "-w", "{inv_cluster}", "--fn", "P21",
        "--cluster", "proj2.inv1", "--breadth", "4", "--stats"],
    "pol_cluster_stats": [
        "pol", "-w", "{inv_cluster}", "--kind", "cluster",
        "--names", "proj2.inv0,proj2.inv1", "--cap", "2", "--breadth", "4",
        "--stats"],
    # c_pol's compile and sweep on the monotone clone's invariant clusters
    "inv_cluster_mono": [
        "inv", "-w", "{pol_ord}", "--class", "pol", "--kind", "cluster",
        "--cap", "3", "--breadth", "3"],
    "pol_cluster_mono_stats": [
        "pol", "-w", "{inv_cluster_mono}", "--kind", "cluster",
        "--names", "pol.inv0,pol.inv1,pol.inv2", "--cap", "3", "--breadth", "3",
        "--stats"],
    # f_pol's work on the matrix stream: constraint matrices, sweep tests,
    # support tuples (ord's antecedent has a positive default)
    "pol_constraint_stats": [
        "pol", "-w", "{inv_constraint}", "--kind", "constraint",
        "--names", CONSTRAINT_INV, "--cap", "2", "--stats"],
    "pol_ord_stats": [
        "pol", "-w", "{ws}", "--kind", "constraint", "--names", "ord",
        "--cap", "2", "--stats"],
    "verify_minors": ["verify", "minors"],
    "verify_lemma_all": ["verify", "lemma-all"],
    "verify_all": ["verify", "all"],
}


def run_case(name, ws_path):
    paths = {case: str(GOLDEN / f"{case}.out") for case in CASES}
    argv = [arg.format(ws=ws_path, **paths) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def ws_file(tmp_path):
    path = tmp_path / "ws.gk"
    path.write_text(WORKSPACE)
    return str(path)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, ws_file):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    want = (GOLDEN / f"{name}.out").read_text()
    clear_memos()
    # cold, then warm: the second run reads what the first one kept
    for run in ("cold", "warm"):
        code, out = run_case(name, ws_file)
        assert code == codes[name], run
        assert out == want, run


def _record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        ws_path = Path(tmp) / "ws.gk"
        ws_path.write_text(WORKSPACE)
        for name in CASES:
            codes[name], out = run_case(name, str(ws_path))
            (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    _record()
