"""The round trips do the recorded work: ``meter.done`` and the class of
every query equal ``golden/same_work.json``, in a cold run (every
module-level memo emptied) and then a warm one in the same process.

The queries are the 186 of the benchmark's ``roundtrip`` batch at seed 1,
each as ``c_pol(cl_inv(C))`` and, over k = 2, ``f_pol(gc_inv(C))``; the
arity-4 monotone frontier on both sides; and ``f_pol`` reaching a
constraint over another alphabet, which drops a sweep after its first
table.  A class is recorded as its member count per arity and a digest
of its tables.

After an intended change of work, re-record with
``PYTHONPATH=src python tests/test_same_work.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import galois_kit as gk
from galois_kit import GaloisConfig, GaloisKitError, Meter, OperationClass
from galois_kit.verify import _monotone_ops
from package_memos import clear_memos

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "same_work.json"


def _roundtrip_batch():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.roundtrip_batch(gk, random.Random(1))


def _queries():
    """(name, call) for every query, in a fixed order."""
    queries = []
    for i, q in enumerate(_roundtrip_batch()):
        cls_, n_max = q.inputs
        if cls_.domain_size == 2:
            cfg = GaloisConfig(2, n_max=n_max, m_max=2 ** n_max, breadth=n_max)
            queries.append((f"{i} f_pol", lambda c=cls_, g=cfg: gk.f_pol(gk.gc_inv(c, g), g)))
        else:
            cfg = GaloisConfig(3, n_max=n_max, m_max=1, breadth=n_max)
        queries.append((f"{i} c_pol", lambda c=cls_, g=cfg: gk.c_pol(gk.cl_inv(c, g), g)))
    mono = OperationClass(2, members=_monotone_ops(2))
    frontier = GaloisConfig(2, n_max=4, m_max=3, breadth=4)
    queries.append(("mono f_pol", lambda: gk.f_pol(gk.gc_inv(mono, frontier), frontier)))
    queries.append(("mono c_pol", lambda: gk.c_pol(gk.cl_inv(mono, frontier), frontier)))
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    mismatched = gk.trivial_constraint(1, 3)
    queries.append(("mismatched f_pol", lambda: gk.f_pol(
        [*gk.gc_inv(mono, cfg), mismatched], cfg)))
    return queries


def _work(call):
    """What a call charged and what it answered, as JSON values."""
    with Meter() as meter:
        try:
            got = call()
        except GaloisKitError as e:
            answer = f"{type(e).__name__}: {e}"
        else:
            pairs = [[n, list(t)] for n, t in got._pairs()]
            answer = {"sizes": {str(n): len(got.arity_part(n)) for n in got.arities()},
                      "sha256": hashlib.sha256(json.dumps(pairs).encode()).hexdigest()}
    return {"done": meter.done, "answer": answer}


def _run():
    return {name: _work(call) for name, call in _queries()}


def test_cold_and_warm_runs_do_the_recorded_work():
    want = json.loads(GOLDEN.read_text())
    clear_memos()
    assert _run() == want  # cold
    assert _run() == want  # warm: the memos and the kept rank vectors are read


if __name__ == "__main__":
    clear_memos()
    GOLDEN.write_text(json.dumps(_run(), indent=0, sort_keys=True) + "\n")
